package experiment

import (
	"fmt"
	"sync"

	"vswapsim/internal/scenario"
	"vswapsim/scenarios"
)

// Registry lists every reproduced table and figure in paper order. An
// entry that runs runEmbedded or renamed is defined by its embedded
// scenario file alone; the entry adds only the short -list title. fig4,
// fig11 and backendN are views: each renders cells of the file whose grid
// it repeats, so it prints what the file prints.
var Registry = []Experiment{
	{ID: "fig3", Title: "200MB read, 512MB guest on 100MB", PaperNote: "Fig. 3", Run: runEmbedded(fig3Scenario)},
	{ID: "fig4", Title: "Ten phased MapReduce guests", PaperNote: "Fig. 4", Run: Fig4},
	{ID: "fig5", Title: "pbzip2 sweep: runtime + over-ballooning", PaperNote: "Fig. 5", Run: renamed("fig5", pbzipScenario)},
	{ID: "fig9", Title: "Sysbench pathology panels", PaperNote: "Fig. 9", Run: runEmbedded(fig9Scenario)},
	{ID: "fig10", Title: "False reads on an allocating process", PaperNote: "Fig. 10", Run: Fig10},
	{ID: "fig11", Title: "pbzip2 I/O and reclaim panels", PaperNote: "Fig. 11", Run: Fig11},
	{ID: "fig12", Title: "Kernbench runtime + preventer remaps", PaperNote: "Fig. 12", Run: runEmbedded(fig12Scenario)},
	{ID: "fig13", Title: "DaCapo Eclipse sweep", PaperNote: "Fig. 13", Run: runEmbedded(fig13Scenario)},
	{ID: "fig14", Title: "Dynamic MapReduce scale-up", PaperNote: "Fig. 14", Run: runEmbedded(fig14Scenario)},
	{ID: "fig15", Title: "Mapper tracking vs guest page cache", PaperNote: "Fig. 15", Run: Fig15},
	{ID: "tab1", Title: "VSwapper lines of code", PaperNote: "Table 1", Run: Table1},
	{ID: "tab2", Title: "Balloon enabled vs disabled (VMware profile)", PaperNote: "Table 2", Run: Table2},
	{ID: "overhead", Title: "Overhead with plentiful memory", PaperNote: "§5.3", Run: Overhead},
	{ID: "windows", Title: "Windows-profile guest", PaperNote: "§5.4", Run: Windows},
	{ID: "ablation", Title: "Design-choice ablations", PaperNote: "DESIGN.md §6", Run: Ablations},
	{ID: "migration", Title: "Mapping-assisted migration estimate", PaperNote: "§7 future work", Run: Migration},
	{ID: "fleetN", Title: "Cloud-density fleet on one overcommitted host", PaperNote: "beyond Fig. 14", Run: renamed("fleetN", fleetScenario)},
	{ID: "backendN", Title: "Swap-backend tiers: hdd/ssd/zswap/remote", PaperNote: "beyond §2.1", Run: BackendN},
	{ID: "clusterN", Title: "Cluster remediation policies under overcommit", PaperNote: "beyond the paper", Run: ClusterN},
}

// The embedded scenario files the registry runs, or reads cells of. fig5
// and fleetN are pbzip.yaml and fleet.yaml under their registry ids, fig4
// renders fig14.yaml's 10-guest row, fig11 renders pbzip.yaml's cells,
// and backendN renders backends.yaml's tier cells, so within one
// invocation each of these entries and its file simulate their cells
// once. clusterN is cluster.yaml's stanza at more guest counts, on seed
// streams of its own.
var (
	fig3Scenario     = embeddedScenario("fig3")
	pbzipScenario    = embeddedScenario("pbzip")
	fig9Scenario     = embeddedScenario("fig9")
	fig12Scenario    = embeddedScenario("fig12")
	fig13Scenario    = embeddedScenario("fig13")
	fig14Scenario    = embeddedScenario("fig14")
	fleetScenario    = embeddedScenario("fleet")
	backendsScenario = embeddedScenario("backends")
	clusterScenario  = embeddedScenario("cluster")
)

// embeddedScenario returns scenarios/<name>.yaml from the embedded set,
// parsed on first call, so a process pays only for the files its
// experiments read. The files are checked by `vswapsim validate` and the
// scenario goldens, so a parse error is a build defect: it panics, and
// the experiment reading the file reports the panic as its failure.
func embeddedScenario(name string) func() *scenario.Scenario {
	return sync.OnceValue(func() *scenario.Scenario {
		data, err := scenarios.FS.ReadFile(name + ".yaml")
		if err == nil {
			var sc *scenario.Scenario
			if sc, err = scenario.Parse(data); err == nil {
				return sc
			}
		}
		panic(fmt.Sprintf("experiment: embedded scenario %s: %v", name, err))
	})
}

// runEmbedded runs an embedded scenario file as a registry entry.
func runEmbedded(sc func() *scenario.Scenario) func(Options) *Report {
	return func(o Options) *Report { return runScenario(sc(), o) }
}

// renamed runs an embedded scenario file, assertions included, and
// reports it under a registry id. The file keeps its own name, which keys
// its cells' seed streams (a scenario name cannot be "fleetN", and fig5's
// seeds derive from "pbzip"), so the entry and `vswapsim run` of the file
// print the same tables.
func renamed(id string, sc func() *scenario.Scenario) func(Options) *Report {
	return func(o Options) *Report {
		rep := runScenario(sc(), o)
		rep.ID = id
		return rep
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// IDs lists all experiment ids in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}
