package experiment

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
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
	for _, s := range []Scheme{Baseline, MapperOnly, VSwapper, BalloonBase} {
		var allocSnap map[string]int64
		out := runSingle(runCfg{
			opts: o, scheme: s,
			guestMB: 512, actualMB: 100,
			warmup: true,
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)}).Wait(p)
			allocSnap = vm.M.Met.Snapshot() // isolate the alloc phase
			return workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(200)})
		})
		d := out.m.Met.Diff(allocSnap)
		tab.Add(s.String(), runtimeOrKilled(out.res),
			fmt.Sprintf("%.1f", float64(d[metrics.DiskOps])/1000),
			fmt.Sprintf("%d", d[metrics.FalseSwapReads]))
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
