package experiment

import (
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// Fig10 reproduces the false-reads demonstration: after the sequential
// read, a process allocates and sequentially accesses 200 MB.
func Fig10(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:        "fig10",
		Title:     "Effect of false reads on a 200MB allocating process (Fig. 10)",
		PaperNote: "preventer more than doubles performance over mapper-only; balloon crashed (over-ballooning); runtime tracks disk ops",
	}
	tab := &Table{
		Title:   "alloc+access phase",
		Columns: []string{"config", "runtime [sec]", "disk ops [1000s]", "false reads"},
	}
	for _, s := range []scenario.Scheme{scenario.Baseline, scenario.MapperOnly, scenario.VSwapper, scenario.BalloonBase} {
		var m *hyper.Machine
		var allocSnap, d map[string]int64
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: s,
			guestMB: 512, actualMB: 100,
			warmup: true,
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)}).Wait(p)
			m, allocSnap = vm.M, vm.M.Met.Snapshot() // isolate the alloc phase
			return workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(200)})
		}))
		if !out.failed() {
			d = m.Met.Diff(allocSnap)
		}
		tab.Add(s.String(), runtimeSecs(out),
			out.show("%.1f", float64(d[metrics.DiskOps])/1000),
			out.show("%d", d[metrics.FalseSwapReads]))
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
