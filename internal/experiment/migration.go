package experiment

import (
	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// Migration implements the paper's future-work proposal (§7): VSwapper's
// mapping knowledge lets live migration ship (file, block) references
// instead of page contents, and skip free/ballooned pages — with no guest
// cooperation. After a cache-heavy workload, the experiment measures a
// stop-and-copy migration with and without mapping assistance under each
// scheme.
func Migration(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:        "migration",
		Title:     "Mapping-assisted live migration (§7, future work)",
		PaperNote: "hypervisors can migrate memory mappings instead of (named) memory pages",
	}
	tab := &Table{
		Title: "stop-and-copy after 200MB read + 64MB anon (512MB guest, 256MB actual, 10GbE)",
		Columns: []string{"config", "strategy", "wire MB", "downtime [s]",
			"mapping-only pages", "skipped pages"},
	}
	for _, s := range []scenario.Scheme{scenario.Baseline, scenario.VSwapper} {
		var naive, mapped hyper.MigrationResult
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: s,
			guestMB: 512, actualMB: 256,
			warmup: true,
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)}).Wait(p)
			j := workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(64)})
			j.Wait(p)
			naive = vm.Migrate(p, hyper.MigrationConfig{UseMappings: false})
			mapped = vm.Migrate(p, hyper.MigrationConfig{UseMappings: true})
			return j
		}))
		toMB := func(b int64) string { return out.show("%.1f", float64(b)/(1<<20)) }
		tab.Add(s.String(), "content copy", toMB(naive.BytesSent), out.show("%s", secs(naive.Duration)),
			"-", out.show("%d", naive.Plan.Skippable))
		tab.Add(s.String(), "mapping-assisted", toMB(mapped.BytesSent), out.show("%s", secs(mapped.Duration)),
			out.show("%d", mapped.Plan.MappingOnly), out.show("%d", mapped.Plan.Skippable))
	}
	rep.Tables = append(rep.Tables, tab)
	rep.Notes = append(rep.Notes,
		"mapping-assisted migration only helps when the Mapper runs: baseline guests have no named pages to reference")
	return rep
}
