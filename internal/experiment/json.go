package experiment

import "vswapsim/internal/hyper"

// This file is the machine-readable report path. Text tables (Report) stay
// the human-facing output; JSONReport is the same content plus the
// machine-level observability data (counters, latency histograms, phase
// accounting, trace tails) that the tables do not surface.
//
// Determinism: the records travel on the cells that produced them, and
// RunAll lists a document's records in the order of its report's cells,
// stably sorted by label (see Report.takeRecords). Neither depends on which
// worker ran a cell or when, so the JSON bytes are bit-identical between
// serial and parallel execution.

// RunRecord couples one simulated machine's report with a label describing
// which run of the experiment produced it.
type RunRecord struct {
	Label  string           `json:"label"`
	Report *hyper.RunReport `json:"report"`
}

// JSONTable is a Table in serializable form.
type JSONTable struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// JSONReport is the machine-readable form of one experiment's output:
// the text report's identity, tables and notes, its fingerprint, and one
// RunRecord per simulated machine.
type JSONReport struct {
	ID          string      `json:"id"`
	Title       string      `json:"title"`
	PaperNote   string      `json:"paper_note,omitempty"`
	Fingerprint string      `json:"fingerprint"`
	Tables      []JSONTable `json:"tables"`
	Notes       []string    `json:"notes,omitempty"`
	Runs        []RunRecord `json:"runs,omitempty"`
	// Failures lists the cells that were killed by the watchdog,
	// panicked, or were canceled — in deterministic order, omitted
	// entirely on a healthy run so such reports stay byte-identical to
	// pre-hardening output.
	Failures []FailureRecord `json:"failures,omitempty"`
}

// BuildJSON assembles the machine-readable report from a finished text
// report, its collected run records, and its failure records.
func BuildJSON(rep *Report, runs []RunRecord, fails []FailureRecord) *JSONReport {
	j := &JSONReport{
		ID:          rep.ID,
		Title:       rep.Title,
		PaperNote:   rep.PaperNote,
		Fingerprint: rep.Fingerprint(),
		Notes:       rep.Notes,
		Runs:        runs,
		Failures:    fails,
	}
	for _, t := range rep.Tables {
		j.Tables = append(j.Tables, JSONTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	return j
}

// JSONDocument is the top-level -json output: the invocation parameters
// plus one JSONReport per experiment, in registry order.
type JSONDocument struct {
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	Quick bool    `json:"quick"`
	// Parallel is omitted (zeroed) in job-granular documents (see
	// jobrun.go): results are byte-identical at any parallelism, so the
	// serving daemon's cached documents must not encode it. CLI documents
	// keep reporting it (always >= 1 after normalization).
	Parallel int `json:"parallel,omitempty"`
	// Faults is the canonical fault-injection spec; omitted (keeping the
	// document byte-identical to faultless builds) when no plan is set.
	Faults string `json:"faults,omitempty"`
	// Swapback/SwapPolicy name the swap backend tier and tiering policy;
	// omitted under the defaults (hdd/writeback) so default documents stay
	// byte-identical to pre-backend output.
	Swapback   string `json:"swapback,omitempty"`
	SwapPolicy string `json:"swappolicy,omitempty"`
	// Incomplete marks a partial document: the run was canceled (SIGINT
	// or a fatal budget breach) before every experiment finished.
	// Omitted on complete runs so their bytes are unchanged.
	Incomplete  bool          `json:"incomplete,omitempty"`
	Experiments []*JSONReport `json:"experiments"`
}

// BuildJSONDocument wraps per-experiment JSON reports with the options
// that produced them.
func BuildJSONDocument(o Options, reps []*JSONReport) *JSONDocument {
	o = o.WithDefaults()
	doc := &JSONDocument{
		Seed:        o.Seed,
		Scale:       o.Scale,
		Quick:       o.Quick,
		Parallel:    o.Parallel,
		Faults:      o.Faults.String(),
		Experiments: reps,
	}
	doc.Swapback, doc.SwapPolicy = o.tierNames()
	return doc
}
