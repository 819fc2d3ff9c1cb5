package experiment

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/workload"
)

// fleetSchemes is the cloud-density configuration set: the two unmanaged
// extremes. Ballooning at this guest count would need the MOM controller
// to police hundreds of targets; the point of the entry is the swapper's
// behavior when uncooperative overcommit is the only tool, which is also
// what keeps the cell fast enough to benchmark.
var fleetSchemes = []Scheme{Baseline, VSwapper}

// fleetDynCfg sizes one cloud-density guest: many small (nominal 128 MB)
// single-VCPU guests packed onto a nominal 8 GB host at ~1.6x commit,
// each running a proportionally small Metis word-count (the same workload
// as the paper's ten-guest scale-up) — consolidation density rather than
// the per-guest pressure of the paper's figures. Nominal sizes stay above
// the 8 MB scaling floor so -scale keeps the overcommit ratio intact.
func fleetDynCfg() dynCfg {
	return dynCfg{
		memMB: 128, hostMB: 8 * 1024, vcpus: 1, staggerSec: 1, diskMB: 256,
		job: func(o Options, vm *hyper.VM) *workload.Job {
			return workload.Metis(vm, workload.MetisConfig{
				InputMB: o.mb(48),
				TableMB: o.mb(64),
			})
		},
	}
}

// FleetN measures cloud-density consolidation: 100+ small guests on one
// overcommitted host, swap-only versus VSwapper. The paper's experiments
// stop at ten guests (Fig. 14); this entry extrapolates the same phased
// scale-up to the guest counts of a dense cloud node and doubles as the
// simulator's large-fleet performance benchmark (BenchmarkRegistry/fleetN).
func FleetN(o Options) *Report {
	o = o.normalized()
	counts := []int{100, 200}
	if o.Quick {
		counts = []int{100}
	}
	rep := &Report{
		ID:        "fleetN",
		Title:     "Cloud-density fleet on one overcommitted host",
		PaperNote: "beyond Fig. 14: 100+ small guests at ~1.6x commit, swap-only vs vswapper",
	}
	tab := &Table{Title: "mean guest runtime [sec]", Columns: []string{"guests"}}
	for _, s := range fleetSchemes {
		tab.Columns = append(tab.Columns, s.String())
	}
	grid := dynamicGrid(o, "fleetN", counts, fleetSchemes, fleetDynCfg())
	for i, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range fleetSchemes {
			row = append(row, renderDynCell(grid[i*len(fleetSchemes)+j]))
		}
		tab.Add(row...)
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
