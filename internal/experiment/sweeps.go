package experiment

import (
	"fmt"
	"strconv"

	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
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

// runSweep executes body across schemes × sizes, fanning the cells out on
// the worker pool, scheme-major. id names the sweep, and so its body: it
// keys each cell's derived seed, so a cell's result is a pure function of
// (Seed, id, scheme, size) — identical whether the grid runs serially or
// in parallel, in any order — and each cell's memo entry, so the
// experiments of one invocation that read a sweep simulate it once.
func runSweep(o Options, id string, schemes []scenario.Scheme, sizes []int,
	body func(vm *hyper.VM, p *sim.Proc) *workload.Job) []cell {
	o = o.normalized()
	cells := make([]cell, len(schemes)*len(sizes))
	opts := o.Key()
	o.forEach(len(cells), func(i int) {
		s, size := schemes[i/len(sizes)], sizes[i%len(sizes)]
		seed := sim.DeriveSeed(o.Seed, id, s.String(), strconv.Itoa(size))
		cells[i] = o.shared(cellKey{def: id, seed: seed, scheme: s, point: size, opts: opts}, func() cell {
			c := runSingle(runCfg{
				opts: o, scheme: s, seed: seed,
				guestMB: 512, actualMB: size,
				warmup: true,
			}, body)
			c.size = size
			return c
		})
	})
	return cells
}

// sweepTable renders one measure of a sweep: a row per guest allocation,
// a column per scheme.
func sweepTable(title string, cells []cell, measure func(cell) string) *Table {
	return pivot(title, "guest mem [MB]", cells, cell.sizeLabel, cell.schemeLabel, measure)
}

// pbzipSweep runs the pbzip2 sweep Figs. 5 and 11 share.
func pbzipSweep(o Options) []cell {
	o = o.normalized()
	schemes := []scenario.Scheme{scenario.Baseline, scenario.MapperOnly, scenario.VSwapper, scenario.BalloonBase}
	// Fig. 5's axis extends to 128 MB, where the paper's guest OOM-kills
	// pbzip2 under the static balloon ("below 240MB" on their axis).
	sizes := append(sweepSizes(o), 128)
	return runSweep(o, "pbzip", schemes, sizes, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
		return workload.Pbzip2(vm, workload.Pbzip2Config{
			InputMB:      o.mb(448),
			WorkingPages: int(5120 * o.Scale), // keep footprint proportional
		})
	})
}

// Fig5 reproduces the pbzip2 runtime sweep with over-ballooning kills.
func Fig5(o Options) *Report {
	cells := pbzipSweep(o)
	rep := &Report{
		ID:        "fig5",
		Title:     "pbzip2 compressing the kernel tree, 512MB guest (Fig. 5)",
		PaperNote: "baseline up to 1.66x slower than balloon; vswapper within 1.03-1.08x; balloon kills pbzip2 below 240MB",
		cells:     cells,
	}
	rep.Tables = append(rep.Tables, sweepTable("runtime [sec]", cells, runtimeSecs))
	return rep
}

// Fig11 reproduces the pbzip2 I/O and reclaim-scan panels.
func Fig11(o Options) *Report {
	cells := pbzipSweep(o)
	rep := &Report{
		ID:        "fig11",
		Title:     "pbzip2: disk operations, swap writes, pages scanned (Fig. 11)",
		PaperNote: "(a) vswapper needs far fewer disk ops; (b) swap writes largely eliminated; (c) mapper doubles scan length under low pressure",
		cells:     cells,
	}
	rep.Tables = append(rep.Tables,
		sweepTable("(a) disk operations [1000s]", cells, func(c cell) string {
			return fmt.Sprintf("%.0f", float64(c.met[metrics.DiskOps])/1000)
		}),
		sweepTable("(b) host swap written sectors [1000s]", cells, func(c cell) string {
			return fmt.Sprintf("%.0f", float64(c.met[metrics.SwapWriteSectors])/1000)
		}),
		sweepTable("(c) pages scanned [millions]", cells, func(c cell) string {
			return fmt.Sprintf("%.2f", float64(c.met[metrics.HostPagesScanned])/1e6)
		}),
	)
	return rep
}

// Fig12 reproduces the Kernbench sweep: runtime and Preventer remaps.
func Fig12(o Options) *Report {
	o = o.normalized()
	schemes := []scenario.Scheme{scenario.Baseline, scenario.MapperOnly, scenario.VSwapper, scenario.BalloonBase}
	sizes := sweepSizes(o)
	files := 2800
	if o.Quick {
		files = 600
	}
	cells := runSweep(o, "fig12", schemes, sizes, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
		return workload.Kernbench(vm, workload.KernbenchConfig{Files: int(float64(files) * o.Scale)})
	})
	rep := &Report{
		ID:        "fig12",
		Title:     "Kernbench kernel build, 512MB guest (Fig. 12)",
		PaperNote: "~15%/5% slowdown at 192MB for baseline/balloon (matching the VMware white paper); preventer eliminates up to 80K false reads",
		cells:     cells,
	}
	rep.Tables = append(rep.Tables,
		sweepTable("(a) runtime [min]", cells, func(c cell) string { return c.runtimeOrKilled(mins) }),
		sweepTable("(b) preventer remaps [1000s]", cells, func(c cell) string {
			return fmt.Sprintf("%.1f", float64(c.met[metrics.PreventerRemaps])/1000)
		}),
	)
	return rep
}
