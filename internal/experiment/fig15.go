package experiment

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// Fig15 reproduces the Mapper's tracking accuracy over time during the
// Eclipse run: tracked pages should coincide with the guest page cache
// excluding dirty pages.
func Fig15(o Options) *Report {
	o = o.normalized()
	type sample struct {
		at                         sim.Time
		cache, cleanCache, tracked float64
	}
	var series []sample
	iters := 6
	if o.Quick {
		iters = 3
	}
	c := runSingle(runCfg{
		opts: o, scheme: scenario.VSwapper,
		guestMB: 512, actualMB: 320,
		warmup: true,
	}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
		return workload.Eclipse(vm, workload.EclipseConfig{
			HeapMB:      o.mb(128),
			JVMAnonMB:   o.mb(230),
			WorkspaceMB: o.mb(120),
			Iterations:  iters,
			Sampler: func(at sim.Time) {
				toMB := func(pages int) float64 { return float64(pages) * 4096 / (1 << 20) }
				series = append(series, sample{
					at:         at,
					cache:      toMB(vm.OS.CachePages()),
					cleanCache: toMB(vm.OS.CachePages() - vm.OS.DirtyCachePages()),
					tracked:    toMB(vm.Mapper.TrackedPages()),
				})
			},
		})
	})
	rep := &Report{
		ID:        "fig15",
		Title:     "Mapper-tracked memory vs guest page cache over time (Fig. 15)",
		PaperNote: "tracked size coincides with the guest page cache excluding dirty pages",
		cells:     []cell{c},
	}
	tab := &Table{
		Title:   "sizes [MB], sampled every 5s",
		Columns: []string{"t [s]", "guest page cache", "excluding dirty", "tracked by mapper"},
	}
	var sumAbsErr, n float64
	for i, s := range series {
		if i%5 == 0 {
			tab.Add(fmt.Sprintf("%.0f", sim.Duration(s.at).Seconds()),
				fmt.Sprintf("%.1f", s.cache),
				fmt.Sprintf("%.1f", s.cleanCache),
				fmt.Sprintf("%.1f", s.tracked))
		}
		sumAbsErr += abs(s.tracked - s.cleanCache)
		n++
	}
	rep.Tables = append(rep.Tables, tab)
	if n > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("mean |tracked - clean cache| = %.1f MB over %d samples", sumAbsErr/n, int(n)))
	}
	return rep
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
