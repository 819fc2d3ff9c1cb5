package experiment

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"vswapsim/internal/scenario"
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

// TestSerialParallelEquivalence is the headline claim of the executor:
// a sweep run on the worker pool is byte-identical to the serial run.
// fig12 is a pure sweep; fig11 reads the memoized pbzip sweep, which the
// parallel pass shares with fig5.
func TestSerialParallelEquivalence(t *testing.T) {
	for _, id := range []string{"fig12", "fig11"} {
		s, p := passRuns(t, id)
		serial, parallel := s.Report.String(), p.Report.String()
		if serial != parallel {
			t.Fatalf("%s parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestRunAllParallelMatchesSerial compares the two golden passes
// document by document: every registry entry and scenario file, run
// concurrently in one RunAll (fig5 and fig11 sharing the single-flight
// pbzip sweep), must give byte-identical reports, run records and
// failure records, returned and emitted in input order.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	docs, serial, parallel := passes(t)
	if len(serial.runs) != len(parallel.runs) {
		t.Fatalf("result counts differ: %d vs %d", len(serial.runs), len(parallel.runs))
	}
	for i, d := range docs {
		if serial.runs[i].Experiment.ID != d.exp.ID || parallel.runs[i].Experiment.ID != d.exp.ID {
			t.Fatalf("result %d out of order: %s / %s", i, serial.runs[i].Experiment.ID, parallel.runs[i].Experiment.ID)
		}
		if parallel.emitted[i] != d.exp.ID {
			t.Fatalf("emit order %v, want input order", parallel.emitted)
		}
		a, b := serial.runs[i].Report.String(), parallel.runs[i].Report.String()
		if a != b {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				d.key, a, b)
		} else if !bytes.Equal(serial.runs[i].json, parallel.runs[i].json) {
			t.Errorf("%s: parallel run records or failures differ from serial (%d vs %d bytes)",
				d.key, len(parallel.runs[i].json), len(serial.runs[i].json))
		}
	}
}

// TestDerivedCellSeedsUnique asserts the per-cell seeds of every fan-out
// grid in the registry never collide — with each other or with the base
// seed the non-sweep experiments run on.
func TestDerivedCellSeedsUnique(t *testing.T) {
	allSchemes := []scenario.Scheme{scenario.Baseline, scenario.BalloonBase, scenario.MapperOnly, scenario.VSwapper, scenario.BalloonVSwapper}
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
