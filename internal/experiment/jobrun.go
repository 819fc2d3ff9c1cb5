package experiment

import "runtime/debug"

// This file is the job-granular entry point the serving daemon
// (internal/serve, cmd/vswapsimd) builds on: one experiment in, one
// machine-readable document out. The document is the one a local -json
// run of the experiment prints: it holds no field that depends on the
// worker count, so two jobs differing only in -parallel serialize to the
// very same bytes, and the result cache does not fragment on a knob that
// cannot influence results.

// RunDocument executes one experiment end to end and returns its
// machine-readable document plus the RunResult (for failure counting and
// diag bundles).
func RunDocument(e Experiment, o Options) (*JSONDocument, RunResult) {
	res := RunAll([]Experiment{e}, o, nil)[0]
	return BuildJSONDocument(o, []*Report{res.Report}), res
}

// NewPanicFailure converts a recovered panic value into a FailureRecord,
// applying the same message/stack sanitization the in-cell shields use.
// The serving daemon uses it for panics that escape the executor's own
// shields (request compilation, document assembly), so a crashing job
// still reports in the one structured failure vocabulary.
func NewPanicFailure(label string, seed uint64, r interface{}) FailureRecord {
	return *Options{Seed: seed}.captureFailure(label, seed, nil, r, debug.Stack())
}
