package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"vswapsim/internal/scenario"
)

// quickOpts runs experiments at quarter scale with trimmed sweeps.
func quickOpts() Options { return Options{Seed: 42, Scale: 0.25, Quick: true} }

// runID runs one registry entry by id.
func runID(t *testing.T, id string, o Options) *Report {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(o)
}

// cellFloat parses a numeric cell, returning NaN-ish failure as (0,false).
func cellFloat(s string) (float64, bool) {
	s = strings.Fields(s)[0]
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Columns: []string{"a", "bb"}}
	tab.Add("1", "2")
	out := tab.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "bb") || !strings.Contains(out, "1") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(Registry) < 14 {
		t.Fatalf("registry has %d entries", len(Registry))
	}
	for _, id := range IDs() {
		e, err := ByID(id)
		if err != nil || e.Run == nil {
			t.Fatalf("broken registry entry %q", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFig3ShapeQuick(t *testing.T) {
	rep := runID(t, "fig3", quickOpts())
	tab := rep.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	vals := map[string]float64{}
	for _, r := range tab.Rows {
		v, ok := cellFloat(r[1])
		if !ok {
			t.Fatalf("config %s did not complete: %q", r[0], r[1])
		}
		vals[r[0]] = v
	}
	if !(vals["balloon+base"] < vals["baseline"] && vals["vswapper"] < vals["baseline"]) {
		t.Fatalf("ordering wrong: %v", vals)
	}
	if vals["baseline"] < 3*vals["vswapper"] {
		t.Fatalf("speedup too small: %v", vals)
	}
}

func TestFig9ShapeQuick(t *testing.T) {
	rep := runID(t, "fig9", quickOpts())
	if len(rep.Tables) != 4 {
		t.Fatalf("panels = %d", len(rep.Tables))
	}
	// Panel (d): baseline writes swap sectors, vswapper almost none.
	var baseW, vswapW float64
	d := rep.Tables[3]
	for _, row := range d.Rows {
		if v, ok := cellFloat(row[1]); ok {
			baseW += v
		}
		if v, ok := cellFloat(row[2]); ok {
			vswapW += v
		}
	}
	if baseW == 0 {
		t.Fatal("baseline produced no silent swap writes")
	}
	if vswapW > baseW/10 {
		t.Fatalf("vswapper swap writes %.0f vs baseline %.0f: not eliminated", vswapW, baseW)
	}
}

func TestFig10ShapeQuick(t *testing.T) {
	rep := Fig10(quickOpts())
	tab := rep.Tables[0]
	get := func(cfg string, col int) string {
		for _, r := range tab.Rows {
			if r[0] == cfg {
				return r[col]
			}
		}
		t.Fatalf("missing row %s", cfg)
		return ""
	}
	baseFalse, _ := cellFloat(get("baseline", 3))
	vswapFalse, _ := cellFloat(get("vswapper", 3))
	if baseFalse == 0 {
		t.Fatal("baseline shows no false reads")
	}
	if vswapFalse != 0 {
		t.Fatalf("vswapper shows %v false reads", vswapFalse)
	}
	baseRT, okB := cellFloat(get("baseline", 1))
	vswapRT, okV := cellFloat(get("vswapper", 1))
	if okB && okV && vswapRT >= baseRT {
		t.Fatalf("vswapper (%v) not faster than baseline (%v)", vswapRT, baseRT)
	}
}

func TestTable1CountsCode(t *testing.T) {
	rep := Table1(Options{})
	tab := rep.Tables[0]
	total, ok := cellFloat(tab.Rows[2][3])
	if !ok || total < 200 {
		t.Fatalf("implausible LoC count: %v", tab.Rows)
	}
}

func TestOverheadSmall(t *testing.T) {
	rep := Overhead(quickOpts())
	for _, row := range rep.Tables[0].Rows {
		pct := strings.TrimSuffix(strings.TrimPrefix(row[3], "+"), "%")
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil {
			t.Fatalf("bad slowdown cell %q", row[3])
		}
		if v > 6 {
			t.Fatalf("workload %s overhead %.1f%% with plentiful memory", row[0], v)
		}
	}
}

func TestFig15TrackingAccuracy(t *testing.T) {
	rep := Fig15(quickOpts())
	if len(rep.Notes) == 0 {
		t.Fatal("no accuracy note")
	}
	// The tracked size should roughly follow the clean cache; compare the
	// last sampled row.
	tab := rep.Tables[0]
	if len(tab.Rows) == 0 {
		t.Fatal("no samples")
	}
	last := tab.Rows[len(tab.Rows)-1]
	clean, _ := cellFloat(last[2])
	tracked, _ := cellFloat(last[3])
	if clean > 4 && (tracked < clean*0.5 || tracked > clean*2.5) {
		t.Fatalf("tracked %.1fMB vs clean cache %.1fMB: not coinciding", tracked, clean)
	}
}

func TestTable2Shape(t *testing.T) {
	rep := Table2(quickOpts())
	tab := rep.Tables[0]
	on, _ := cellFloat(tab.Rows[0][1])
	off, _ := cellFloat(tab.Rows[1][1])
	if !(on < off) {
		t.Fatalf("balloon-enabled (%v) not faster than disabled (%v)", on, off)
	}
	onW, _ := cellFloat(tab.Rows[0][3])
	offW, _ := cellFloat(tab.Rows[1][3])
	if !(onW < offW) {
		t.Fatalf("balloon-enabled swap writes (%v) not lower (%v)", onW, offW)
	}
}

// repeatDynamic and repeatCluster are small dynamic and cluster
// documents under memory pressure, for the repeat-run checks.
const repeatDynamic = `scenario: repeat-dynamic
title: "dynamic repeat-run probe"
mode: dynamic
fleet:
  counts: [4]
  memory_mb: 128
  host_mb: 320
  vcpus: 1
  stagger_sec: 1
  disk_mb: 256
schemes: [baseline, vswapper]
workload:
  kind: metis
  input_mb: 48
  table_mb: 64
table:
  title: "mean guest runtime [sec]"
`

const repeatCluster = `scenario: repeat-cluster
title: "cluster repeat-run probe"
mode: cluster
backend: ssd
cluster:
  hosts: 2
  host_mb: 512
  guests: 8
  guest_mb: 256
  working_set_pct: [60, 95]
  units: 30
  phase_units: 10
  unit_compute_ms: 20
  stagger_ms: 20
  disk_mb: 512
  packing: balanced-pressure
  remediation: [migrate, kill]
  threshold: 0.05
  sample_sec: 1
  cooldown_sec: 2
  max_commit_factor: 2.5
schemes: [vswapper]
table:
  title: "fleet latency p95/p99 [sec]"
`

// docJSON runs one experiment as its own invocation and returns its
// report, run records and failures as JSON.
func docJSON(t *testing.T, e Experiment, o Options) []byte {
	t.Helper()
	run, err := newGoldenRun(RunAll([]Experiment{e}, o, nil)[0])
	if err != nil {
		t.Fatal(err)
	}
	return run.json
}

// TestExperimentDeterminism is the explicit in-process repeat-run check,
// one per cell kind: a document run twice in one process gives
// byte-identical JSON. The golden passes simulate each golden document
// only once per parallelism, so this is the check that one run leaves
// nothing behind that changes the next.
func TestExperimentDeterminism(t *testing.T) {
	fig3, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e    Experiment
		doc  string
	}{
		{name: "single", e: fig3},
		{name: "dynamic", doc: repeatDynamic},
		{name: "cluster", doc: repeatCluster},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := quickOpts()
			if c.doc != "" {
				sc, err := scenario.Parse([]byte(c.doc))
				if err != nil {
					t.Fatal(err)
				}
				c.e, o = FromScenario(sc), goldenOpts()
			}
			a, b := docJSON(t, c.e, o), docJSON(t, c.e, o)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s not deterministic across runs", c.name)
			}
		})
	}
}
