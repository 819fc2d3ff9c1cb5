package experiment

import (
	"fmt"
	"strings"
	"testing"

	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
)

// starvedOpts is the golden configuration under an event budget that
// kills every cell of the scenarios below before it finishes.
func starvedOpts() Options {
	o := goldenOpts()
	o.MaxEvents = 2000
	return o
}

// TestFailedCellsFailTheirAssertions: when the watchdog kills every cell
// of a single, dynamic or cluster scenario, each grid cell reads "failed"
// and each assertion fails with the failed-cell note, instead of
// comparing the dead cells' zeros (which let some of them pass).
func TestFailedCellsFailTheirAssertions(t *testing.T) {
	for _, name := range []string{"fault-storm", "fleet", "cluster"} {
		t.Run(name, func(t *testing.T) {
			sc := embeddedScenario(name)()
			rep := FromScenario(sc).Run(starvedOpts())
			n := len(sc.Assertions)
			if rep.AssertionFailures != n {
				t.Errorf("AssertionFailures = %d, want all %d", rep.AssertionFailures, n)
			}
			noted, summary := 0, false
			for _, note := range rep.Notes {
				if strings.HasPrefix(note, "ASSERTION FAILED: ") && strings.HasSuffix(note, " (reads a failed cell)") {
					noted++
				}
				summary = summary || strings.HasPrefix(note, fmt.Sprintf("assertions: 0/%d passed", n))
			}
			if noted != n || !summary {
				t.Errorf("want %d failed-cell notes and a 0/%d summary, got notes:\n  %s",
					n, n, strings.Join(rep.Notes, "\n  "))
			}
			for _, tab := range rep.Tables {
				for _, row := range tab.Rows {
					for _, v := range row[1:] {
						if v != "failed" {
							t.Errorf("table %q row %v: cell %q, want failed", tab.Title, row, v)
						}
					}
				}
			}
		})
	}
}

// TestHandCodedTablesShowFailedRuns: under the same budget, each measured
// cell of a dead overhead or backendN run reads "failed", a derived
// column with a failed side reads "-", and no cell prints NaN or Inf.
func TestHandCodedTablesShowFailedRuns(t *testing.T) {
	for _, c := range []struct {
		id     string
		perRun int // table cells one run measures
	}{
		{"overhead", 1}, // its runtime
		{"backendN", 6}, // its runtime and five swap counters
	} {
		t.Run(c.id, func(t *testing.T) {
			e, err := ByID(c.id)
			if err != nil {
				t.Fatal(err)
			}
			r := RunAll([]Experiment{e}, starvedOpts(), nil)[0]
			if len(r.Failures) == 0 {
				t.Fatal("the budget killed no run")
			}
			failed := 0
			for _, tab := range r.Report.Tables {
				for _, row := range tab.Rows {
					for j, v := range row {
						if strings.Contains(v, "NaN") || strings.Contains(v, "Inf") {
							t.Errorf("table %q row %v prints %q", tab.Title, row, v)
						}
						if v == "failed" {
							failed++
						}
						derived := tab.Columns[j] == "slowdown" || tab.Columns[j] == "speedup"
						if derived && (row[1] == "failed" || row[2] == "failed") && v != "-" {
							t.Errorf("table %q row %v: %s = %q with a failed side, want -", tab.Title, row, tab.Columns[j], v)
						}
					}
				}
			}
			if want := len(r.Failures) * c.perRun; failed != want {
				t.Errorf("%d cells read failed, want %d (%d failed runs)\n%s", failed, want, len(r.Failures), r.Report)
			}
		})
	}
}

// TestAssertionDefaults covers the two assertion defaults no checked-in
// scenario exercises: a dynamic assertion whose guest count a -quick run
// trimmed is skipped, and a multi-backend assertion without a backend
// reads the first declared tier.
func TestAssertionDefaults(t *testing.T) {
	for _, c := range []struct {
		name, doc string
		cells     []cell
		want      []string // the report's notes, in order
	}{
		{
			name: "trimmed guests",
			doc: `scenario: trimmed
title: "a -quick run drops the 4-guest row"
mode: dynamic
fleet:
  counts: [2, 4]
  quick_counts: [2]
  memory_mb: 128
  host_mb: 1024
  vcpus: 1
  stagger_sec: 1
  disk_mb: 256
schemes: [baseline, vswapper]
workload:
  kind: metis
  input_mb: 48
  table_mb: 64
table:
  title: "t"
assertions:
  - counter: workload.killed
    scheme: vswapper
    op: "=="
    value: 0
  - counter: workload.mean_runtime_sec
    op: "<"
    left: vswapper
    right: baseline
    guests: 4
`,
			cells: []cell{
				{scheme: scenario.Baseline, guests: 2, runtime: 9 * sim.Second},
				{scheme: scenario.VSwapper, guests: 2, runtime: 4 * sim.Second},
			},
			want: []string{
				"assertion skipped (guests 4 not in this run): " +
					"workload.mean_runtime_sec[vswapper] < workload.mean_runtime_sec[baseline]",
				"assertions: 1/1 passed (1 skipped)",
			},
		},
		{
			name: "first tier",
			doc: `scenario: tiers
title: "an assertion without a backend reads zswap"
mode: single
backend: [zswap, hdd]
fleet:
  memory_mb: 512
  actual_mb: 100
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
table:
  title: "t"
assertions:
  - counter: swapback.fast.store.pages
    scheme: baseline
    op: ">"
    value: 0
  - counter: swapback.fast.store.pages
    scheme: baseline
    backend: hdd
    op: "=="
    value: 0
`,
			cells: []cell{
				{tier: swapback.Zswap, scheme: scenario.Baseline, met: map[string]int64{"swapback.fast.store.pages": 7}},
				{tier: swapback.HDD, scheme: scenario.Baseline},
			},
			want: []string{"assertions: 2/2 passed"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := scenario.Parse([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			rep := &Report{}
			evalAssertions(sc, rep, c.cells)
			if rep.AssertionFailures != 0 || strings.Join(rep.Notes, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("%d failures, notes:\n  %s\nwant:\n  %s", rep.AssertionFailures,
					strings.Join(rep.Notes, "\n  "), strings.Join(c.want, "\n  "))
			}
		})
	}
}
