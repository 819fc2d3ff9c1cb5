package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"strings"
	"sync"

	"vswapsim/internal/hyper"
)

// This file is the machine-readable report path. Text tables (Report) stay
// the human-facing output; JSONReport is the same content plus the
// machine-level observability data (counters, latency histograms, phase
// accounting, trace tails) that the tables do not surface.
//
// Determinism: run records are collected concurrently under the parallel
// executor, so arrival order is scheduling-dependent. sorted() orders them
// by (label, content hash); identical runs serialize identically, so the
// final JSON bytes are bit-identical between serial and parallel execution.

// RunRecord couples one simulated machine's report with a label describing
// which run of the experiment produced it.
type RunRecord struct {
	Label  string           `json:"label"`
	Report *hyper.RunReport `json:"report"`
}

// recordLog accumulates records from concurrently executing cells: the
// run log of RunRecords and the failure log of FailureRecords.
type recordLog[T any] struct {
	mu   sync.Mutex
	recs []T
	// key returns a record's label and the value whose serialized sha256
	// orders records that share a label.
	key func(T) (label string, content any)
}

// add appends records; a nil log drops them. Replay order (e.g. of a
// memoized sweep's records) is free, because sorted re-orders everything.
func (l *recordLog[T]) add(recs ...T) {
	if l == nil || len(recs) == 0 {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, recs...)
	l.mu.Unlock()
}

// sorted returns the records in a scheduling-independent order: by label,
// then by the sha256 of the serialized content (ties can only be records
// with identical bytes, whose relative order is immaterial).
func (l *recordLog[T]) sorted() []T {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	type keyed struct {
		key string
		rec T
	}
	ks := make([]keyed, len(l.recs))
	for i, r := range l.recs {
		ks[i].rec = r
	}
	l.mu.Unlock()
	for i := range ks {
		label, content := l.key(ks[i].rec)
		data, err := json.Marshal(content)
		if err != nil {
			panic("experiment: record not serializable: " + err.Error())
		}
		sum := sha256.Sum256(data)
		ks[i].key = label + "\x00" + hex.EncodeToString(sum[:])
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	recs := make([]T, len(ks))
	for i, k := range ks {
		recs[i] = k.rec
	}
	return recs
}

// EnableRunLog arms per-run report collection on this Options value: every
// machine simulated under it contributes a RunRecord. It returns the fetch
// function; call it after the experiment finishes to get the records in
// deterministic order. Collection follows the Options value into nested
// runs, so enable it before passing Options to Run/RunAll.
func (o *Options) EnableRunLog() func() []RunRecord {
	o.runlog = &recordLog[RunRecord]{
		key: func(r RunRecord) (string, any) { return r.Label, r.Report },
	}
	return o.runlog.sorted
}

// JSONTable is a Table in serializable form.
type JSONTable struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// JSONReport is the machine-readable form of one experiment's output:
// the text report's identity, tables and notes, its fingerprint, and one
// RunRecord per simulated machine (when collection was enabled).
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
