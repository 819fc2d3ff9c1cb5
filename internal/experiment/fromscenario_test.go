package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/workload"
	"vswapsim/scenarios"
)

const scenarioGoldenFile = "testdata/golden_scenarios.json"

// TestScenarioGoldens fingerprints every checked-in scenario from the
// serial golden pass, reusing the package-wide -update flag:
//
//	go test ./internal/experiment -run TestScenarioGoldens -update
func TestScenarioGoldens(t *testing.T) {
	docs, err := goldenDocs()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, d := range docs {
		if d.sc == nil {
			continue
		}
		base := strings.TrimSuffix(strings.TrimPrefix(d.key, "scenarios/"), ".yaml")
		if d.sc.Name != base {
			t.Errorf("%s: scenario name %q does not match file name %q "+
				"(the name keys the seed derivation)", d.key, d.sc.Name, base)
		}
		rep := serialRun(t, d.key).Report
		if rep.AssertionFailures != 0 {
			t.Errorf("%s: %d assertion failures at golden config:\n  %s",
				d.key, rep.AssertionFailures, strings.Join(rep.Notes, "\n  "))
		}
		got[d.sc.Name] = rep.Fingerprint
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(scenarioGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), scenarioGoldenFile)
		return
	}

	data, err := os.ReadFile(scenarioGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for name, fp := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden fingerprint recorded (run with -update)", name)
			continue
		}
		if fp != w {
			t.Errorf("%s: fingerprint %s, golden %s — scenario output drifted; "+
				"if intentional, regenerate with -update", name, fp[:12], w[:12])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden file has stale entry %q (run with -update)", name)
		}
	}
}

// TestDeclaredTierEqualsFlags: a file's single declared backend and
// policy run exactly like the same file without them under the matching
// -swapback and -swappolicy (tables, notes and run records), and the
// declared policy visibly applies: its run records differ from the
// backend's alone.
func TestDeclaredTierEqualsFlags(t *testing.T) {
	text, err := scenarios.FS.ReadFile("fig3.yaml")
	if err != nil {
		t.Fatal(err)
	}
	declare := func(lines string) *scenario.Scenario {
		doc := strings.Replace(string(text), "\nmode: single\n", "\nmode: single\n"+lines, 1)
		sc, err := scenario.Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	report := func(sc *scenario.Scenario, o Options) []byte {
		data, err := json.Marshal(RunAll([]Experiment{FromScenario(sc)}, o, nil)[0].Report)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	declared := report(declare("backend: zswap\npolicy: hotfirst\n"), goldenOpts())
	flags := goldenOpts()
	flags.Swapback, flags.SwapPolicy = swapback.Zswap, swapback.PolicyHot
	if !bytes.Equal(declared, report(declare(""), flags)) {
		t.Error("backend: zswap and policy: hotfirst report differently from -swapback zswap -swappolicy hotfirst")
	}
	if bytes.Equal(declared, report(declare("backend: zswap\n"), goldenOpts())) {
		t.Error("policy: hotfirst left the zswap runs as writeback ran them")
	}
}

// TestRuntimePanelPer: a fixed file's runtime panel divides by its per,
// as a counter panel does. fig9 with its runtime panel in minutes prints
// fig9's seconds over 60, up to the rounding of both.
func TestRuntimePanelPer(t *testing.T) {
	text, err := scenarios.FS.ReadFile("fig9.yaml")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(string(text), "    source: runtime\n", "    source: runtime\n    per: 60\n", 1)
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	mins := FromScenario(sc).Run(goldenOpts()).Tables[0]
	secs := serialRun(t, "fig9").Report.Tables[0]
	if len(mins.Rows) != len(secs.Rows) || len(secs.Rows) == 0 {
		t.Fatalf("runtime panels have %d and %d rows", len(mins.Rows), len(secs.Rows))
	}
	for i, row := range secs.Rows {
		for j := 1; j < len(row); j++ {
			s, err1 := strconv.ParseFloat(row[j], 64)
			m, err2 := strconv.ParseFloat(mins.Rows[i][j], 64)
			if err1 != nil || err2 != nil || math.Abs(m-s/60) > 0.05+0.05/60+1e-9 {
				t.Errorf("iteration %s, %s: %q min for %q s", row[0], secs.Columns[j], mins.Rows[i][j], row[j])
			}
		}
	}
}

// TestSingleOutHoldsNoMachine pins what every grid keeps of each cell
// until the report is built: the cell record, which holds coordinates and
// measures only. A field that reaches a hyper.Machine or hyper.VM keeps
// every cell's simulated host alive until the last cell finishes, which
// multiplies the peak memory of every single-mode scenario by its scheme
// count and of every sweep by its grid size.
func TestSingleOutHoldsNoMachine(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(hyper.Machine{}): true,
		reflect.TypeOf(hyper.VM{}):      true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if banned[ty] {
			t.Errorf("%s reaches %s", path, ty)
			return
		}
		switch ty.Kind() {
		case reflect.Map:
			walk(ty.Key(), path+"[key]")
			walk(ty.Elem(), path+"[elem]")
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[elem]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Interface, reflect.Func:
			t.Errorf("%s is %s: its dynamic value is not checkable", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(cell{}), "cell")
}

// TestScenarioAssertionFailure proves a failed assertion is both visible
// (deterministic note, so it lands in the fingerprint) and fatal to the
// CLI (nonzero AssertionFailures maps to exit code 1).
func TestScenarioAssertionFailure(t *testing.T) {
	doc := `scenario: must-fail
title: "assertion failure propagation probe"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 256
schemes: [baseline]
workload:
  kind: seqread
  file_mb: 200
  iterations: 1
  quick_iterations: 1
table:
  title: "runtime [sec]"
assertions:
  - counter: workload.killed
    scheme: baseline
    op: "=="
    value: 1
`
	sc, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	rep := FromScenario(sc).Run(goldenOpts())
	if rep.AssertionFailures != 1 {
		t.Fatalf("AssertionFailures = %d, want 1\nnotes: %v", rep.AssertionFailures, rep.Notes)
	}
	var failNote, summary bool
	for _, n := range rep.Notes {
		if strings.HasPrefix(n, "ASSERTION FAILED: workload.killed[baseline] == 1") {
			failNote = true
		}
		if n == "assertions: 0/1 passed" {
			summary = true
		}
	}
	if !failNote || !summary {
		t.Fatalf("assertion failure not reported in notes: %v", rep.Notes)
	}
}

// TestScaledCountsFloorAtOne: a count that scales below one unit runs one
// unit. Truncated to zero it would read as the workload's paper-sized
// default, so `files: 1` at -scale 0.125 would build 2800 units and
// pbzip2 at a tiny scale would keep 5120 pages per thread.
func TestScaledCountsFloorAtOne(t *testing.T) {
	if got := (Options{Scale: 0.0001}).count(workload.Pbzip2WorkingPages); got != 1 {
		t.Errorf("pbzip2 working pages at -scale 0.0001 = %d, want 1", got)
	}
	sc, err := scenario.Parse([]byte(`scenario: one-unit
title: "one compilation unit"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 512
schemes: [baseline]
workload:
  kind: kernbench
  files: 1
  quick_files: 1
table:
  title: "runtime [sec]"
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, quick := range []bool{false, true} {
		o := goldenOpts()
		o.Quick = quick
		c := FromScenario(sc).Run(o).cells[0]
		// Units compile one after another on the guest's one VCPU, 420 ms
		// each, so a second unit would double the runtime.
		if c.runtime < 420*sim.Millisecond || c.runtime >= 840*sim.Millisecond {
			t.Errorf("quick=%v: runtime %v, want one unit's compile", quick, c.runtime)
		}
	}
}
