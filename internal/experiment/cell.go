package experiment

import (
	"fmt"
	"strconv"
	"sync"

	"vswapsim/internal/cluster"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
)

// cell is one simulated grid point and the unit of simulation, sharing
// and records: where it sits in its grid, what it measured, and the run
// or failure records it produced. runSingle, runDynamic and runCluster
// each return one, a grid is a slice of them, pivot renders grid tables
// from them, evalAssertions checks scenario assertions against them, and
// a Report keeps the cells its tables read until RunAll takes the
// document's records from them. A cell holds no machine or VM, so a finished
// cell's simulator state is garbage as soon as its runner returns.
type cell struct {
	// Coordinates. A grid sets the axes it has and leaves the rest zero.
	tier   swapback.Kind
	scheme scenario.Scheme
	policy cluster.Remediation
	size   int // controlled guest allocation [MB] (sweeps)
	guests int // guest count (fleet and cluster cells)

	// failure records a cell that was killed by the watchdog, panicked,
	// or was canceled. Its table cells read "failed", and every assertion
	// that reads it fails.
	failure *FailureRecord
	// runs holds one record per simulated machine of a completed cell.
	runs []RunRecord

	// runtime is the measured job's runtime, or a fleet's mean guest
	// runtime; killed counts OOM-killed guests (0 or 1 for one guest).
	runtime sim.Duration
	killed  int
	iters   []sim.Duration   // per-iteration runtimes of an iterative job
	met     map[string]int64 // counter deltas over the measured body, or a cluster's fleet counters
	// Cluster latency quantiles [ns], per workload unit and per guest.
	unitP95, unitP99, guestP95, guestP99 int64
	// A single-mode scenario cell's samples, one column per panel, and
	// its timeline notes, so every document that reads it renders them.
	panels [][]string
	notes  []string
}

// failed reports whether the cell did not complete.
func (c cell) failed() bool { return c.failure != nil }

// cellMemo is one invocation's cells: normalized creates it beside the
// run-slot limiter, so the experiments of one RunAll share it and it goes
// when the invocation returns. Entries are single-flight, so documents
// that read one cell simulate it once, even when the parallel executor
// runs them concurrently, and hold the same records.
type cellMemo struct {
	mu      sync.Mutex
	entries map[cellKey]*memoEntry
}

type memoEntry struct {
	done chan struct{} // closed once c is filled
	c    cell
}

// cellKey names a cell within one invocation: its definition (its
// scenario's source digest), its seed and grid coordinates, and the
// options' Key.
type cellKey struct {
	def    string
	seed   uint64
	tier   swapback.Kind
	scheme scenario.Scheme
	point  int // a sweep's guest allocation [MB], or a fleet's guest count
	opts   string
}

// shared returns the cell run builds, simulated once per invocation for
// its key. A key without a definition is never shared.
func (o Options) shared(k cellKey, run func() cell) cell {
	if k.def == "" {
		return run()
	}
	o.memo.mu.Lock()
	e, ok := o.memo.entries[k]
	if !ok {
		e = &memoEntry{done: make(chan struct{})}
		o.memo.entries[k] = e
	}
	o.memo.mu.Unlock()
	if ok {
		<-e.done
		return e.c
	}
	defer close(e.done) // waiters read the zero cell if run panics
	e.c = run()
	return e.c
}

// value reads one assertion metric off the cell: a pseudo-metric, or a
// counter (zero when never written). Latency quantiles read in
// milliseconds.
func (c cell) value(metric string) float64 {
	switch metric {
	case scenario.MetricRuntimeSec, scenario.MetricMeanRuntimeSec:
		return c.runtime.Seconds()
	case scenario.MetricKilled:
		return float64(c.killed)
	case scenario.MetricUnitP95:
		return float64(c.unitP95) / 1e6
	case scenario.MetricUnitP99:
		return float64(c.unitP99) / 1e6
	case scenario.MetricGuestP95:
		return float64(c.guestP95) / 1e6
	case scenario.MetricGuestP99:
		return float64(c.guestP99) / 1e6
	}
	return float64(c.met[metric])
}

// show formats a measured table cell; a failed cell reads "failed".
func (c cell) show(format string, args ...any) string {
	if c.failed() {
		return "failed"
	}
	return fmt.Sprintf(format, args...)
}

// runtimeOrKilled renders the cell's runtime in unit, flagging OOM kills
// the way the paper annotates crashed balloon runs.
func (c cell) runtimeOrKilled(unit func(sim.Duration) string) string {
	switch {
	case c.failed():
		return "failed"
	case c.killed > 0:
		return "killed"
	}
	return unit(c.runtime)
}

// runtimeSecs renders the cell's runtime in seconds (see runtimeOrKilled).
func runtimeSecs(c cell) string { return c.runtimeOrKilled(secs) }

// The grid axes a pivot lays out, as their table labels.
func (c cell) sizeLabel() string   { return strconv.Itoa(c.size) }
func (c cell) guestsLabel() string { return strconv.Itoa(c.guests) }
func (c cell) schemeLabel() string { return c.scheme.String() }
func (c cell) policyLabel() string { return c.policy.String() }

// pivot renders one measure of a grid as a table: a row per value of the
// row axis, under the corner heading, and a column per value of the
// column axis. A failed cell reads "failed". The cells must cover the
// grid with each row's cells in column order, which holds for the
// scheme-major sweeps and the row-major fleet and cluster grids alike.
func pivot(title, corner string, cells []cell, row, col, measure func(cell) string) *Table {
	tab := &Table{Title: title, Columns: []string{corner}}
	rowOf := map[string]int{}
	for _, c := range cells {
		label := row(c)
		i, ok := rowOf[label]
		if !ok {
			i = len(tab.Rows)
			rowOf[label] = i
			tab.Add(label)
		}
		if i == 0 {
			tab.Columns = append(tab.Columns, col(c))
		}
		tab.Rows[i] = append(tab.Rows[i], c.show("%s", measure(c)))
	}
	return tab
}

// evalAssertions checks a scenario's assertions against its cells in any
// mode, appending deterministic notes and counting failures into the
// report. An assertion names schemes, or remediation policies in cluster
// mode, and reads them at its backend and guest count: an unset backend
// reads the first declared tier, and unset guests this run's largest
// count. An assertion whose guest count this run trimmed (a -quick
// dynamic run) is skipped with a note, and one that reads a failed cell
// fails.
func evalAssertions(sc *scenario.Scenario, rep *Report, cells []cell) {
	if len(sc.Assertions) == 0 {
		return
	}
	axis := cell.schemeLabel
	if sc.Mode == scenario.ModeCluster {
		axis = cell.policyLabel
	}
	largest := 0
	for _, c := range cells {
		largest = max(largest, c.guests)
	}
	passed, skipped := 0, 0
	for _, a := range sc.Assertions {
		tier, guests := cells[0].tier, largest
		if a.Backend != nil {
			tier = *a.Backend
		}
		if a.Guests != 0 {
			guests = a.Guests
		}
		names := []string{a.Left, a.Right}
		if a.Threshold() {
			names = []string{a.Scheme}
		}
		var read []cell
		failed := false
		for _, name := range names {
			for _, c := range cells {
				if c.tier == tier && c.guests == guests && axis(c) == name {
					read = append(read, c)
					failed = failed || c.failed()
					break
				}
			}
		}
		switch {
		case len(read) < len(names):
			skipped++
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("assertion skipped (guests %d not in this run): %s", a.Guests, a.String()))
			continue
		case failed:
			rep.AssertionFailures++
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("ASSERTION FAILED: %s (reads a failed cell)", a.String()))
			continue
		}
		left, right := read[0].value(a.Counter), a.Value
		if len(read) == 2 {
			right = read[1].value(a.Counter)
		}
		if a.Compare(left, right) {
			passed++
			continue
		}
		rep.AssertionFailures++
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("ASSERTION FAILED: %s (left=%g right=%g)", a.String(), left, right))
	}
	summary := fmt.Sprintf("assertions: %d/%d passed", passed, len(sc.Assertions)-skipped)
	if sc.Mode == scenario.ModeDynamic {
		summary += fmt.Sprintf(" (%d skipped)", skipped)
	}
	rep.Notes = append(rep.Notes, summary)
}
