package experiment

import "fmt"

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

// BackendN renders the tier grid of backends.yaml, the Fig. 3 read (200
// MB sequential read, 512 MB guest on 100 MB) under baseline and VSwapper
// per swap-backend tier: the paper's premise is that host swap is
// catastrophically slow, so this quantifies how much of VSwapper's win
// survives when the swap device is an SSD, compressed RAM, or a
// network-attached tier instead of a rotating disk. It reads the file's
// cells, so backendN and backends.yaml simulate them once per invocation.
func BackendN(o Options) *Report {
	sc := backendsScenario()
	rep := &Report{
		ID:        "backendN",
		Title:     "VSwapper vs baseline across swap-backend tiers (hdd/ssd/zswap/remote)",
		PaperNote: "beyond the paper: §2.1's slow-swap premise re-measured per storage tier",
		cells:     singleCells(sc, scenarioOpts(sc, o)),
	}

	rt := &Table{
		Title:   "200MB read runtime by swap tier [sec]",
		Columns: []string{"backend", "baseline", "vswapper", "speedup"},
	}
	// The file declares the schemes [baseline, vswapper], so each tier's
	// cells are a pair.
	for i := 0; i+1 < len(rep.cells); i += 2 {
		base, vsw := rep.cells[i], rep.cells[i+1]
		speedup := "-"
		if !base.failed() && !vsw.failed() && vsw.runtime > 0 {
			speedup = fmt.Sprintf("%.2fx", base.runtime.Seconds()/vsw.runtime.Seconds())
		}
		rt.Add(base.tier.String(), runtimeSecs(base), runtimeSecs(vsw), speedup)
	}
	rep.Tables = append(rep.Tables, rt)

	ct := &Table{
		Title:   "swap traffic by tier and scheme",
		Columns: append([]string{"backend", "scheme"}, backendCounters...),
	}
	for _, c := range rep.cells {
		row := []string{c.tier.String(), c.scheme.String()}
		for _, name := range backendCounters {
			row = append(row, c.show("%d", c.met[name]))
		}
		ct.Add(row...)
	}
	rep.Tables = append(rep.Tables, ct)
	return rep
}
