package experiment

import (
	"fmt"

	"vswapsim/internal/metrics"
)

// sweepTable renders one measure of a sweep: a row per guest allocation,
// a column per scheme.
func sweepTable(title string, cells []cell, measure func(cell) string) *Table {
	return pivot(title, "guest mem [MB]", cells, cell.sizeLabel, cell.schemeLabel, measure)
}

// Fig11 reproduces the pbzip2 I/O and reclaim-scan panels: three more
// pivots of pbzip.yaml's cells, which fig5 prints the runtimes of.
func Fig11(o Options) *Report {
	sc := pbzipScenario()
	cells := singleCells(sc, scenarioOpts(sc, o))
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
