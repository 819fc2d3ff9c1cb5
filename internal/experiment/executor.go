package experiment

import (
	"runtime/debug"
	"sync"
	"time"
)

// This file is the parallel experiment executor. Every figure/table is a
// set of fully independent simulator runs (each builds its own sim.Env,
// metrics.Set and disk model), so sweep cells, dynamic-scenario cells and
// whole registry entries fan out as jobs on a bounded worker pool.
//
// Determinism is preserved by construction, not by scheduling:
//   - each job seeds its private sim.Env with sim.DeriveSeed(base, labels)
//     — a pure function of the experiment id and the sweep point, never of
//     which worker ran the job or when;
//   - each job writes into its own pre-allocated result slot, and tables
//     are assembled from those slots in loop order after all jobs finish.
// Parallel output is therefore bit-identical to serial output; the golden
// and equivalence tests in golden_test.go/executor_test.go enforce this.

// limiter bounds how many simulator runs execute at once. It is shared
// down an entire invocation (registry fan-out and the sweeps inside each
// experiment draw from the same slot pool), so total CPU-bound
// concurrency stays at Parallel regardless of nesting. Only leaf runs
// (cells, see runCell) hold slots; coordinators that merely wait on
// children never do, which is what makes the nesting deadlock-free.
type limiter struct {
	sem chan struct{}
}

func newLimiter(n int) *limiter {
	if n < 1 {
		n = 1
	}
	return &limiter{sem: make(chan struct{}, n)}
}

// acquire blocks until a run slot is free and returns its release func.
// A nil limiter (Options that never went through normalized) is a no-op.
func (o Options) acquire() func() {
	if o.lim == nil {
		return func() {}
	}
	o.lim.sem <- struct{}{}
	return func() { <-o.lim.sem }
}

// forEach runs n independent jobs. With Parallel <= 1 the jobs run inline
// in index order (the serial reference path); otherwise every job gets a
// goroutine and the shared limiter bounds how many simulate at a time.
// Jobs must not communicate except through their own result slots.
func (o Options) forEach(n int, job func(i int)) {
	if o.Parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			job(i)
		}(i)
	}
	wg.Wait()
}

// RunResult couples an experiment's finished report with its wall-clock
// cost.
type RunResult struct {
	Experiment Experiment
	Report     *Report
	Elapsed    time.Duration
}

// runExperimentShielded runs one experiment, converting a panic that
// escapes the per-cell shields (table assembly, experiment-level glue)
// into a failed report plus a failure record, so sibling experiments in
// the sweep still complete.
func runExperimentShielded(e Experiment, o Options) (rep *Report) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rec := o.captureFailure("experiment/"+e.ID, o.Seed, nil, r, debug.Stack())
		rep = &Report{
			ID:        e.ID,
			Title:     e.Title,
			PaperNote: e.PaperNote,
			Notes:     []string{"experiment aborted: " + rec.Message},
			cells:     []cell{{failure: rec}},
		}
	}()
	return e.Run(o)
}

// RunAll executes the given experiments under one shared worker pool and
// returns their results in input order. The experiments share one cell
// memo, so a cell that several of them read is simulated once. Reports
// are bit-identical to running each experiment alone and serially. If
// emit is non-nil it is called once per result, always in input order,
// as soon as a result and all its predecessors are available — so
// callers can stream output while later experiments still run. At
// Parallel 1 the experiments run inline in order, each emitted as it
// finishes.
func RunAll(exps []Experiment, o Options, emit func(RunResult)) []RunResult {
	o = o.normalized()
	out := make([]RunResult, len(exps))
	if emit == nil {
		emit = func(RunResult) {}
	}
	var (
		mu   sync.Mutex
		done = make([]bool, len(exps))
		next int
	)
	o.forEach(len(exps), func(i int) {
		start := time.Now()
		rep := runExperimentShielded(exps[i], o)
		rep.finish()
		r := RunResult{Experiment: exps[i], Report: rep, Elapsed: time.Since(start)}
		mu.Lock()
		defer mu.Unlock()
		out[i] = r
		done[i] = true
		for next < len(exps) && done[next] {
			emit(out[next])
			next++
		}
	})
	return out
}
