package experiment

import "vswapsim/internal/hyper"

// This file is the machine-readable report path. A document is the
// options that produced it plus one Report per experiment; each Report
// carries, beside the content of the text tables, the machine-level
// observability data (counters, latency histograms, phase accounting,
// trace tails) that the tables do not surface. No field depends on the
// worker count, so the bytes are bit-identical between serial and
// parallel execution, locally and served.

// RunRecord couples one simulated machine's report with a label describing
// which run of the experiment produced it.
type RunRecord struct {
	Label  string           `json:"label"`
	Report *hyper.RunReport `json:"report"`
}

// JSONDocument is the top-level -json output: the result-affecting
// options plus one Report per experiment, in registry order.
type JSONDocument struct {
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	Quick bool    `json:"quick"`
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
	Incomplete  bool      `json:"incomplete,omitempty"`
	Experiments []*Report `json:"experiments"`
}

// BuildJSONDocument wraps finished reports with the options that
// produced them, marked incomplete if o's run was canceled.
func BuildJSONDocument(o Options, reps []*Report) *JSONDocument {
	o = o.WithDefaults()
	doc := &JSONDocument{
		Seed:        o.Seed,
		Scale:       o.Scale,
		Quick:       o.Quick,
		Faults:      o.Faults.String(),
		Incomplete:  o.canceled(),
		Experiments: reps,
	}
	doc.Swapback, doc.SwapPolicy = o.tierNames()
	return doc
}
