package experiment

import (
	"fmt"
	"strconv"
	"sync"

	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// sweepSizes are the controlled guest allocations (MB) of §5.1; the guest
// always believes it has 512 MB.
func sweepSizes(o Options) []int {
	if o.Quick {
		return []int{512, 320, 192}
	}
	return []int{512, 448, 384, 320, 256, 192}
}

// sweepResult holds one (scheme, size) cell of a sweep. failed marks a
// cell that was killed by the watchdog, panicked, or was canceled; its
// res/met are zero-valued and sweepTable renders it as "failed".
type sweepResult struct {
	res    workload.Result
	met    map[string]int64
	failed bool
}

// runSweep executes body across schemes × sizes, fanning the cells out on
// the worker pool. id names the sweep in each cell's derived seed, so a
// cell's result is a pure function of (Seed, id, scheme, size) — identical
// whether the grid runs serially or in parallel, in any order.
func runSweep(o Options, id string, schemes []Scheme, sizes []int,
	body func(vm *hyper.VM, p *sim.Proc) *workload.Job) map[Scheme]map[int]sweepResult {
	o = o.normalized()
	type cell struct {
		scheme Scheme
		size   int
	}
	cells := make([]cell, 0, len(schemes)*len(sizes))
	for _, s := range schemes {
		for _, size := range sizes {
			cells = append(cells, cell{s, size})
		}
	}
	results := make([]sweepResult, len(cells))
	o.forEach(len(cells), func(i int) {
		c := cells[i]
		r := runSingle(runCfg{
			opts: o, scheme: c.scheme,
			seed:    sim.DeriveSeed(o.Seed, id, c.scheme.String(), strconv.Itoa(c.size)),
			guestMB: 512, actualMB: c.size,
			warmup: true,
		}, body)
		results[i] = sweepResult{res: r.res, met: r.met, failed: r.failed != nil}
	})
	out := make(map[Scheme]map[int]sweepResult)
	for i, c := range cells {
		if out[c.scheme] == nil {
			out[c.scheme] = make(map[int]sweepResult)
		}
		out[c.scheme][c.size] = results[i]
	}
	return out
}

// sweepTable renders one metric across the sweep grid.
func sweepTable(title string, schemes []Scheme, sizes []int,
	data map[Scheme]map[int]sweepResult, cell func(sweepResult) string) *Table {
	tab := &Table{Title: title, Columns: []string{"guest mem [MB]"}}
	for _, s := range schemes {
		tab.Columns = append(tab.Columns, s.String())
	}
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, s := range schemes {
			if r := data[s][size]; r.failed {
				row = append(row, "failed")
			} else {
				row = append(row, cell(r))
			}
		}
		tab.Add(row...)
	}
	return tab
}

// pbzipSweep runs the pbzip2 sweep shared by Figs. 5 and 11; results are
// memoized single-flight under Options.Key, so the two figures cost one
// sweep even when the parallel executor generates them concurrently, and
// a run under different knobs (a backend tier, a trace ring) never reuses
// another's sweep.
type pbzipEntry struct {
	once  sync.Once
	data  map[Scheme]map[int]sweepResult
	recs  []RunRecord
	fails []FailureRecord
}

var (
	pbzipMu    sync.Mutex
	pbzipCache = map[string]*pbzipEntry{}
)

// resetSweepCaches clears the cross-experiment memoization; tests and
// BenchmarkRegistry use it to make every run actually simulate.
func resetSweepCaches() {
	pbzipMu.Lock()
	defer pbzipMu.Unlock()
	pbzipCache = map[string]*pbzipEntry{}
}

func pbzipSweep(o Options) (map[Scheme]map[int]sweepResult, []Scheme, []int) {
	o = o.normalized()
	schemes := []Scheme{Baseline, MapperOnly, VSwapper, BalloonBase}
	// Fig. 5's axis extends to 128 MB, where the paper's guest OOM-kills
	// pbzip2 under the static balloon ("below 240MB" on their axis).
	sizes := append(sweepSizes(o), 128)
	key := o.Key()
	pbzipMu.Lock()
	e := pbzipCache[key]
	if e == nil {
		e = &pbzipEntry{}
		pbzipCache[key] = e
	}
	pbzipMu.Unlock()
	e.once.Do(func() {
		// The sweep is shared between Figs. 5 and 11, so its run records are
		// captured once here and replayed into every caller's log below —
		// whichever figure happens to trigger the sweep, both figures report
		// the same runs, keeping parallel JSON output scheduling-independent.
		oi := o
		fetch := oi.EnableRunLog()
		fetchFails := oi.EnableFailureLog()
		e.data = runSweep(oi, "pbzip", schemes, sizes, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Pbzip2(vm, workload.Pbzip2Config{
				InputMB:      o.mb(448),
				WorkingPages: int(5120 * o.Scale), // keep footprint proportional
			})
		})
		e.recs = fetch()
		e.fails = fetchFails()
	})
	o.runlog.addRecords(e.recs)
	o.faillog.addRecords(e.fails)
	return e.data, schemes, sizes
}

// Fig5 reproduces the pbzip2 runtime sweep with over-ballooning kills.
func Fig5(o Options) *Report {
	data, schemes, sizes := pbzipSweep(o)
	rep := &Report{
		ID:        "fig5",
		Title:     "pbzip2 compressing the kernel tree, 512MB guest (Fig. 5)",
		PaperNote: "baseline up to 1.66x slower than balloon; vswapper within 1.03-1.08x; balloon kills pbzip2 below 240MB",
	}
	rep.Tables = append(rep.Tables, sweepTable("runtime [sec]", schemes, sizes, data,
		func(r sweepResult) string { return runtimeOrKilled(r.res) }))
	return rep
}

// Fig11 reproduces the pbzip2 I/O and reclaim-scan panels.
func Fig11(o Options) *Report {
	data, schemes, sizes := pbzipSweep(o)
	rep := &Report{
		ID:        "fig11",
		Title:     "pbzip2: disk operations, swap writes, pages scanned (Fig. 11)",
		PaperNote: "(a) vswapper needs far fewer disk ops; (b) swap writes largely eliminated; (c) mapper doubles scan length under low pressure",
	}
	rep.Tables = append(rep.Tables,
		sweepTable("(a) disk operations [1000s]", schemes, sizes, data, func(r sweepResult) string {
			return fmt.Sprintf("%.0f", float64(r.met[metrics.DiskOps])/1000)
		}),
		sweepTable("(b) host swap written sectors [1000s]", schemes, sizes, data, func(r sweepResult) string {
			return fmt.Sprintf("%.0f", float64(r.met[metrics.SwapWriteSectors])/1000)
		}),
		sweepTable("(c) pages scanned [millions]", schemes, sizes, data, func(r sweepResult) string {
			return fmt.Sprintf("%.2f", float64(r.met[metrics.HostPagesScanned])/1e6)
		}),
	)
	return rep
}

// Fig12 reproduces the Kernbench sweep: runtime and Preventer remaps.
func Fig12(o Options) *Report {
	o = o.normalized()
	schemes := []Scheme{Baseline, MapperOnly, VSwapper, BalloonBase}
	sizes := sweepSizes(o)
	files := 2800
	if o.Quick {
		files = 600
	}
	data := runSweep(o, "fig12", schemes, sizes, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
		return workload.Kernbench(vm, workload.KernbenchConfig{Files: int(float64(files) * o.Scale)})
	})
	rep := &Report{
		ID:        "fig12",
		Title:     "Kernbench kernel build, 512MB guest (Fig. 12)",
		PaperNote: "~15%/5% slowdown at 192MB for baseline/balloon (matching the VMware white paper); preventer eliminates up to 80K false reads",
	}
	rep.Tables = append(rep.Tables,
		sweepTable("(a) runtime [min]", schemes, sizes, data, func(r sweepResult) string {
			if r.res.Killed {
				return "killed"
			}
			return mins(r.res.Runtime())
		}),
		sweepTable("(b) preventer remaps [1000s]", schemes, sizes, data, func(r sweepResult) string {
			return fmt.Sprintf("%.1f", float64(r.met[metrics.PreventerRemaps])/1000)
		}),
	)
	return rep
}
