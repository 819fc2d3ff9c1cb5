package experiment

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/workload"
)

// backendSchemes are the two schemes the tier comparison contrasts: the
// paper's uncooperative-swap baseline and full VSwapper.
var backendSchemes = []scenario.Scheme{scenario.Baseline, scenario.VSwapper}

// backendCounters are the per-cell counters the second table surfaces,
// in column order. hostswap.* counts all swap traffic on every tier;
// swapback.* isolates the non-default tiers' fast-path behavior.
var backendCounters = []string{
	"hostswap.read.ops",
	"hostswap.write.ops",
	"swapback.fast.store.pages",
	"swapback.demote.pages",
	"swapback.remote.tail.events",
}

// BackendN sweeps every swap-backend tier under the Fig. 3 workload
// (200 MB sequential read, 512 MB guest on 100 MB): the paper's premise
// is that host swap is catastrophically slow, so this quantifies how much
// of VSwapper's win survives when the swap device is an SSD, compressed
// RAM, or a network-attached tier instead of a rotating disk.
func BackendN(o Options) *Report {
	o = o.normalized()
	kinds := swapback.AllKinds()
	rep := &Report{
		ID:        "backendN",
		Title:     "VSwapper vs baseline across swap-backend tiers (hdd/ssd/zswap/remote)",
		PaperNote: "beyond the paper: §2.1's slow-swap premise re-measured per storage tier",
	}

	cells := make([]cell, len(kinds)*len(backendSchemes))
	o.forEach(len(cells), func(i int) {
		k, s := kinds[i/len(backendSchemes)], backendSchemes[i%len(backendSchemes)]
		ko := o
		ko.Swapback = k
		cells[i] = runSingle(runCfg{
			opts: ko, scheme: s,
			seed:    sim.DeriveSeed(o.Seed, "backendN", k.String(), s.String()),
			guestMB: 512, actualMB: 100,
			warmup: true,
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)})
		})
	})

	rt := &Table{
		Title:   "200MB read runtime by swap tier [sec]",
		Columns: []string{"backend", "baseline", "vswapper", "speedup"},
	}
	for ki, k := range kinds {
		base, vsw := cells[ki*len(backendSchemes)], cells[ki*len(backendSchemes)+1]
		speedup := "-"
		if !base.failed && !vsw.failed && vsw.runtime > 0 {
			speedup = fmt.Sprintf("%.2fx", base.runtime.Seconds()/vsw.runtime.Seconds())
		}
		rt.Add(k.String(), runtimeSecs(base), runtimeSecs(vsw), speedup)
	}
	rep.Tables = append(rep.Tables, rt)

	ct := &Table{
		Title:   "swap traffic by tier and scheme",
		Columns: append([]string{"backend", "scheme"}, backendCounters...),
	}
	for _, c := range cells {
		row := []string{c.tier.String(), c.scheme.String()}
		for _, name := range backendCounters {
			row = append(row, c.show("%d", c.met[name]))
		}
		ct.Add(row...)
	}
	rep.Tables = append(rep.Tables, ct)
	return rep
}
