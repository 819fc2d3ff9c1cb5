package experiment

import "runtime/debug"

// This file is the job-granular entry point the serving daemon
// (internal/serve, cmd/vswapsimd) builds on: one experiment in, one
// machine-readable document out, with the properties content-addressed
// caching needs spelled out and enforced here.
//
// A job document deliberately omits the invocation's parallelism: the
// executor's output is byte-identical at any -parallel (the golden and
// equivalence tests enforce it), so two jobs differing only in worker
// count must serialize to the very same bytes — otherwise the result
// cache would fragment on a knob that cannot influence results.

// RunDocument executes one experiment end to end — run log and failure
// log armed — and returns its machine-readable document plus the raw
// RunResult (for failure counting and diag bundles). The document's
// Parallel field is zeroed (and therefore omitted from the JSON), making
// the serialized bytes a pure function of the experiment and the
// result-affecting options; Incomplete is set when the invocation's
// context was canceled mid-run.
func RunDocument(e Experiment, o Options) (*JSONDocument, RunResult) {
	res := RunAll([]Experiment{e}, o, nil)[0]
	doc := BuildJSONDocument(o, []*JSONReport{BuildJSON(res.Report, res.Runs, res.Failures)})
	doc.Parallel = 0
	doc.Incomplete = o.canceled()
	return doc, res
}

// Render reconstructs the human-readable report text from a JSONReport —
// the exact layout Report.String produces — so a thin client holding only
// the daemon's JSON document can print the same tables a local run would.
func (j *JSONReport) Render() string {
	r := &Report{ID: j.ID, Title: j.Title, PaperNote: j.PaperNote, Notes: j.Notes}
	for _, t := range j.Tables {
		r.Tables = append(r.Tables, &Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	return r.String()
}

// NewPanicFailure converts a recovered panic value into a FailureRecord,
// applying the same message/stack sanitization the in-cell shields use.
// The serving daemon uses it for panics that escape the executor's own
// shields (request compilation, document assembly), so a crashing job
// still reports in the one structured failure vocabulary.
func NewPanicFailure(label string, seed uint64, r interface{}) FailureRecord {
	return *Options{Seed: seed}.captureFailure(label, seed, nil, r, debug.Stack())
}
