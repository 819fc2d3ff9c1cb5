package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// This file tests the run-hardening layer end to end: a fixture experiment
// with one livelocking and one panicking cell among healthy siblings must
// complete with both failures as structured, replayable records — byte
// identical between serial and parallel execution — while budgets leave
// healthy output untouched.

// fixtureMaxEvents bounds the fixture cells. Healthy fixture cells finish
// in well under 100k events (measured ~30k); the livelocked cell would run
// forever without it.
const fixtureMaxEvents = 400_000

// hardeningFixture is a fixture experiment of four cells: two healthy, one
// livelocked (the simulated clock stops advancing), one panicking. Cells
// run through the same runSingle/forEach machinery the real sweeps use.
func hardeningFixture() Experiment {
	type fixtureCell struct {
		name string
		body func(vm *hyper.VM, p *sim.Proc) *workload.Job
	}
	cells := []fixtureCell{
		{"healthy-a", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Warmup(vm, 256)
		}},
		// The two failing cells first touch more pages than their cgroup
		// limit holds, so host swapping fills the trace ring before the
		// failure — the abnormal-termination capture must still carry it.
		{"livelock", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			workload.Warmup(vm, 4096).Wait(p)
			for {
				p.Sleep(0) // zero-advance events forever
			}
		}},
		{"panic", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			workload.Warmup(vm, 4096).Wait(p)
			panic("deliberate test panic")
		}},
		{"healthy-b", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Warmup(vm, 512)
		}},
	}
	return Experiment{
		ID:    "hardfix",
		Title: "run-hardening fixture (test only)",
		Run: func(o Options) *Report {
			o = o.normalized()
			rep := &Report{ID: "hardfix", Title: "run-hardening fixture (test only)", cells: make([]cell, len(cells))}
			o.forEach(len(cells), func(i int) {
				rep.cells[i] = runSingle(runCfg{
					opts: o, scheme: scenario.Baseline,
					seed: sim.DeriveSeed(o.Seed, "hardfix", cells[i].name),
					// actual (clamped to the 8MB floor = 2048 pages) is well
					// under the failing cells' 4096-page touch set, forcing
					// host swapping and hence trace-ring content.
					guestMB: 256, actualMB: 32, warmup: false,
				}, cells[i].body)
			})
			tab := &Table{Title: "cells", Columns: []string{"cell", "outcome"}}
			for i, c := range cells {
				tab.Add(c.name, rep.cells[i].show("ok"))
			}
			rep.Tables = append(rep.Tables, tab)
			return rep
		},
	}
}

// fixtureOpts is the hardened fixture configuration.
func fixtureOpts(parallel int) Options {
	return Options{
		Seed: 42, Scale: 0.125, Quick: true, Parallel: parallel,
		TraceRing: 32, MaxEvents: fixtureMaxEvents,
	}
}

// runFixture executes the fixture under RunAll and returns the result.
func runFixture(t *testing.T, parallel int) RunResult {
	t.Helper()
	return RunAll([]Experiment{hardeningFixture()}, fixtureOpts(parallel), nil)[0]
}

// fixtureDoc serializes a fixture result the way the CLIs do.
func fixtureDoc(t *testing.T, r RunResult, o Options) []byte {
	t.Helper()
	doc := BuildJSONDocument(o, []*Report{r.Report})
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHardeningFixtureKindsAndDiagnostics: the livelocked cell is killed
// by the watchdog and the panicking cell is recovered; both records carry
// the replay identity, the trace-ring tail, and (for the panic) a
// sanitized stack, while both healthy siblings complete normally.
func TestHardeningFixtureKindsAndDiagnostics(t *testing.T) {
	r := runFixture(t, 1)
	if len(r.Report.Runs) != 2 {
		t.Fatalf("healthy runs = %d, want 2", len(r.Report.Runs))
	}
	if len(r.Report.Failures) != 2 {
		t.Fatalf("failures = %d, want 2: %+v", len(r.Report.Failures), r.Report.Failures)
	}
	byKind := map[string]FailureRecord{}
	for _, f := range r.Report.Failures {
		byKind[f.Kind] = f
	}
	wd, ok := byKind[FailWatchdogEvents]
	if !ok {
		t.Fatalf("no %s record among %+v", FailWatchdogEvents, r.Report.Failures)
	}
	pan, ok := byKind[FailPanic]
	if !ok {
		t.Fatalf("no %s record among %+v", FailPanic, r.Report.Failures)
	}

	// Watchdog kill: deterministic position, one past the budget.
	if wd.Events != fixtureMaxEvents+1 {
		t.Errorf("watchdog kill at event %d, want %d", wd.Events, fixtureMaxEvents+1)
	}
	if !strings.Contains(wd.Message, "budget") {
		t.Errorf("watchdog message %q does not mention the budget", wd.Message)
	}
	// Panic: sanitized message and stack, truncated at the shield frame.
	if !strings.Contains(pan.Message, "deliberate test panic") {
		t.Errorf("panic message %q lost the panic value", pan.Message)
	}
	if len(pan.Stack) == 0 {
		t.Error("panic record has no stack")
	} else if !strings.Contains(pan.Stack[len(pan.Stack)-1], "Shielded(") {
		t.Errorf("stack not truncated at the shield frame: ends with %q", pan.Stack[len(pan.Stack)-1])
	}
	for _, f := range []FailureRecord{wd, pan} {
		if f.Seed == 0 || f.BaseSeed != 42 {
			t.Errorf("record %q lacks replay identity: seed=%d base=%d", f.Label, f.Seed, f.BaseSeed)
		}
		// Satellite guarantee: the trace-ring tail is captured on abnormal
		// termination, not just in happy-path reports.
		if len(f.Trace) == 0 {
			t.Errorf("record %q has no trace tail despite TraceRing", f.Label)
		}
	}
	// The report renders failed cells without aborting the table.
	text := r.Report.String()
	for _, want := range []string{"livelock", "failed", "healthy-a", "ok"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestFailedRunsReleaseTheirMachines: when a panic ends a cell's run, its
// parked processes exit, so nothing keeps the failed cell's machine
// reachable. Repeated failed runs leave the goroutine count and the live
// heap where they started.
func TestFailedRunsReleaseTheirMachines(t *testing.T) {
	runFixture(t, 1) // build lazily initialised state first
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	for i := 0; i < 5; i++ {
		if r := runFixture(t, 1); len(r.Report.Failures) != 2 {
			t.Fatalf("run %d: %d failures, want 2", i, len(r.Report.Failures))
		}
	}
	// A process goroutine ends just after its last handshake; give the
	// stragglers a moment.
	for wait := 0; runtime.NumGoroutine() > goroutines && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines %d -> %d after five failed runs", goroutines, n)
	}
	const slack = 1 << 20
	if h := liveHeap(); h > heap+slack {
		t.Errorf("live heap %.1f -> %.1f MB after five failed runs", float64(heap)/(1<<20), float64(h)/(1<<20))
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHardeningFixtureSerialParallelIdentical: the full JSON document —
// healthy runs plus both failure records, stacks included — serializes to
// identical bytes whether the fixture runs serially or on the pool.
func TestHardeningFixtureSerialParallelIdentical(t *testing.T) {
	serial := runFixture(t, 1)
	parallel := runFixture(t, 8)
	a := fixtureDoc(t, serial, fixtureOpts(1))
	b := fixtureDoc(t, parallel, fixtureOpts(8))
	if !bytes.Equal(a, b) {
		t.Fatalf("serial and parallel hardened documents differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestHardeningDiagBundlesReplay: -diagdir bundles are written one per
// failed cell, carry a replay command naming the cell's base seed, and
// re-running the fixture reproduces byte-identical failure records — the
// bundle really is sufficient to replay the failure.
func TestHardeningDiagBundlesReplay(t *testing.T) {
	r := runFixture(t, 4)
	dir := t.TempDir()
	o := fixtureOpts(4)
	paths, err := WriteDiagBundles(dir, "vswapsim", "hardfix", ReplayCommand("hardfix", "", o), o, r.Report.Failures)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(r.Report.Failures) {
		t.Fatalf("wrote %d bundles for %d failures", len(paths), len(r.Report.Failures))
	}
	replayed := runFixture(t, 1) // the replay reference
	recByLabel := map[string][]byte{}
	for _, f := range replayed.Report.Failures {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		recByLabel[f.Label] = data
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var b DiagBundle
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("bundle %s is not valid JSON: %v", p, err)
		}
		for _, want := range []string{"go run ./cmd/vswapsim", "-seed 42", "-maxevents", "-quick"} {
			if !strings.Contains(b.Replay, want) {
				t.Errorf("bundle %s replay %q missing %q", filepath.Base(p), b.Replay, want)
			}
		}
		got, err := json.Marshal(b.Failure)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := recByLabel[b.Failure.Label]
		if !ok {
			t.Fatalf("bundle %s labels unknown cell %q", filepath.Base(p), b.Failure.Label)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("bundle %s failure record does not replay identically:\n%s\nvs\n%s",
				filepath.Base(p), got, want)
		}
	}
}

// TestCanceledRunSkipsCells: with the invocation context already
// canceled, every cell is skipped and recorded as a "canceled" failure —
// the partial-report path SIGINT relies on.
func TestCanceledRunSkipsCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := fixtureOpts(4)
	o.Ctx, o.CancelRun = ctx, cancel
	r := RunAll([]Experiment{hardeningFixture()}, o, nil)[0]
	if len(r.Report.Runs) != 0 {
		t.Fatalf("canceled run still produced %d run records", len(r.Report.Runs))
	}
	if len(r.Report.Failures) != 4 {
		t.Fatalf("failures = %d, want all 4 cells", len(r.Report.Failures))
	}
	for _, f := range r.Report.Failures {
		if f.Kind != FailCanceled {
			t.Fatalf("record %q has kind %q, want %q", f.Label, f.Kind, FailCanceled)
		}
	}
}

// TestHealthyRunWithBudgetsMatchesGolden pins the zero-perturbation
// guarantee in bytes: generous budgets on an all-healthy run leave the
// golden fig3 report byte-identical to the unbudgeted output.
func TestHealthyRunWithBudgetsMatchesGolden(t *testing.T) {
	o := goldenOpts()
	o.TraceRing = 64 // the golden report embeds the trace tail
	o.MaxEvents = 1 << 40
	o.CellTimeout = 0 // wall budgets are never deterministic; keep them off here
	got := jsonBytes(t, "fig3", o)
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("budgets on a healthy run perturbed the golden report bytes")
	}
}

// TestExperimentLevelPanicShield: a panic that escapes the per-cell
// shields (here: thrown straight from Experiment.Run) degrades to a failed
// report plus a failure record instead of crashing the invocation.
func TestExperimentLevelPanicShield(t *testing.T) {
	boom := Experiment{
		ID: "boom", Title: "panics at the experiment level",
		Run: func(Options) *Report { panic("table assembly exploded") },
	}
	rs := RunAll([]Experiment{boom, hardeningFixture()}, fixtureOpts(2), nil)
	if len(rs[0].Report.Failures) != 1 || rs[0].Report.Failures[0].Kind != FailPanic {
		t.Fatalf("experiment panic not captured: %+v", rs[0].Report.Failures)
	}
	if !strings.Contains(strings.Join(rs[0].Report.Notes, " "), "experiment aborted") {
		t.Fatalf("report notes do not flag the abort: %v", rs[0].Report.Notes)
	}
	// The sibling experiment still ran to completion.
	if len(rs[1].Report.Runs) != 2 || len(rs[1].Report.Failures) != 2 {
		t.Fatalf("sibling experiment perturbed: %d runs, %d failures", len(rs[1].Report.Runs), len(rs[1].Report.Failures))
	}
}
