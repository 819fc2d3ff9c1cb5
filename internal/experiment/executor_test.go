package experiment

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"vswapsim/internal/sim"
)

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, par := range []int{1, 4} {
		o := Options{Parallel: par}.normalized()
		hits := make([]int32, 50)
		var mu sync.Mutex
		o.forEach(len(hits), func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallel=%d: job %d ran %d times", par, i, h)
			}
		}
	}
}

func TestLimiterBoundsConcurrency(t *testing.T) {
	const width = 3
	o := Options{Parallel: width}.normalized()
	var mu sync.Mutex
	cur, peak := 0, 0
	o.forEach(24, func(i int) {
		release := o.acquire()
		defer release()
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
	})
	if peak > width {
		t.Fatalf("observed %d concurrent slot holders, limit %d", peak, width)
	}
	if peak < 1 {
		t.Fatal("no job ever held a slot")
	}
}

func TestAcquireWithoutLimiterIsNoop(t *testing.T) {
	release := Options{}.acquire() // not normalized: nil limiter
	release()                      // must not panic or block
}

// equivOpts is the configuration both sides of an equivalence check use.
func equivOpts(parallel int) Options {
	return Options{Seed: 42, Scale: 0.125, Quick: true, Parallel: parallel}
}

// TestSerialParallelEquivalence is the headline claim of the executor:
// a sweep run on the worker pool is byte-identical to the serial run.
func TestSerialParallelEquivalence(t *testing.T) {
	// fig12: a pure sweep with no cross-experiment memoization.
	serial := Fig12(equivOpts(1)).String()
	parallel := Fig12(equivOpts(4)).String()
	if serial != parallel {
		t.Fatalf("fig12 parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}

	// fig11: the memoized pbzip sweep; reset the cache between runs so
	// both sides actually execute.
	resetSweepCaches()
	serial = Fig11(equivOpts(1)).String()
	resetSweepCaches()
	parallel = Fig11(equivOpts(4)).String()
	if serial != parallel {
		t.Fatalf("fig11 parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestRunAllParallelMatchesSerial runs whole registry entries concurrently
// — including fig5 and fig11, which share the single-flight pbzip sweep,
// and fig9 and fig14, which run their scenario files — and requires
// byte-identical reports in both modes.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"fig3", "fig5", "fig9", "fig11", "fig14"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	resetSweepCaches()
	serial := RunAll(exps, equivOpts(1), nil)
	resetSweepCaches()
	var emitted []string
	parallel := RunAll(exps, equivOpts(3), func(r RunResult) {
		emitted = append(emitted, r.Experiment.ID)
	})
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Experiment.ID != exps[i].ID {
			t.Fatalf("result %d out of order: %s", i, serial[i].Experiment.ID)
		}
		if emitted[i] != exps[i].ID {
			t.Fatalf("emit order %v, want input order", emitted)
		}
		a, b := serial[i].Report.String(), parallel[i].Report.String()
		if a != b {
			t.Fatalf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				exps[i].ID, a, b)
		}
	}
}

// TestDerivedCellSeedsUnique asserts the per-cell seeds of every fan-out
// grid in the registry never collide — with each other or with the base
// seed the non-sweep experiments run on.
func TestDerivedCellSeedsUnique(t *testing.T) {
	allSchemes := []Scheme{Baseline, BalloonBase, MapperOnly, VSwapper, BalloonVSwapper}
	fullSizes := sweepSizes(Options{}.normalized())
	quickSizes := sweepSizes(Options{Quick: true}.normalized())
	union := func(lists ...[]int) []int {
		seen := map[int]bool{}
		var out []int
		for _, l := range lists {
			for _, v := range l {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		return out
	}
	grids := []struct {
		id     string
		points []int
	}{
		{"pbzip", union(fullSizes, quickSizes, []int{128})},
		{"fig12", union(fullSizes, quickSizes)},
		{"fig13", union([]int{512, 448, 384, 320, 256})},
		{"fig14", union([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})},
		{"fig4", union([]int{4, 10})},
	}
	const base = 42
	seen := map[uint64]string{base: "base seed"}
	for _, g := range grids {
		for _, s := range allSchemes {
			for _, p := range g.points {
				key := fmt.Sprintf("%s/%s/%d", g.id, s, p)
				seed := sim.DeriveSeed(base, g.id, s.String(), strconv.Itoa(p))
				if prev, dup := seen[seed]; dup {
					t.Fatalf("seed collision: %s and %s both derive %d", prev, key, seed)
				}
				seen[seed] = key
			}
		}
	}
}
