package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
)

// scenarioJSON runs one experiment through the shared executor and returns
// its report and its full machine-readable form (tables, notes, per-run
// records) as canonical JSON bytes — the same payload `vswapsim -json`
// emits per experiment, minus the document header.
func scenarioJSON(t *testing.T, e Experiment, o Options) (*Report, []byte) {
	t.Helper()
	resetSweepCaches()
	rs := RunAll([]Experiment{e}, o, nil)
	if len(rs) != 1 {
		t.Fatalf("RunAll returned %d results", len(rs))
	}
	r := rs[0]
	if len(r.Failures) != 0 {
		t.Fatalf("%s: unexpected failures: %+v", e.ID, r.Failures)
	}
	data, err := json.MarshalIndent(BuildJSON(r.Report, r.Runs, r.Failures), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return r.Report, data
}

const scenarioGoldenFile = "testdata/golden_scenarios.json"

// TestScenarioGoldens fingerprints every checked-in scenario at the golden
// configuration, reusing the package-wide -update flag:
//
//	go test ./internal/experiment -run TestScenarioGoldens -update
func TestScenarioGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	sort.Strings(paths)
	got := map[string]string{}
	for _, p := range paths {
		sc, err := scenario.Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		base := strings.TrimSuffix(filepath.Base(p), ".yaml")
		if sc.Name != base {
			t.Errorf("%s: scenario name %q does not match file name %q "+
				"(the name keys the seed derivation)", p, sc.Name, base)
		}
		resetSweepCaches()
		rep := FromScenario(sc).Run(goldenOpts())
		if rep.AssertionFailures != 0 {
			t.Errorf("%s: %d assertion failures at golden config:\n  %s",
				p, rep.AssertionFailures, strings.Join(rep.Notes, "\n  "))
		}
		got[sc.Name] = rep.Fingerprint()
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

// TestSchemeNamesAgree pins the two sides of the scheme-name contract:
// every simulator Scheme is reachable from YAML under exactly its
// String() name, and scenario.SchemeNames (used in validation errors and
// docs) lists exactly that set.
func TestSchemeNamesAgree(t *testing.T) {
	all := []Scheme{Baseline, BalloonBase, MapperOnly, VSwapper, BalloonVSwapper}
	if len(schemeByName) != len(all) {
		t.Errorf("schemeByName has %d entries, want %d", len(schemeByName), len(all))
	}
	for _, s := range all {
		got, ok := schemeByName[s.String()]
		if !ok {
			t.Errorf("scheme %q not reachable from YAML", s.String())
			continue
		}
		if got != s {
			t.Errorf("schemeByName[%q] = %v, want %v", s.String(), got, s)
		}
	}
	names := map[string]bool{}
	for _, n := range scenario.SchemeNames {
		names[n] = true
		if _, ok := schemeByName[n]; !ok {
			t.Errorf("scenario.SchemeNames lists %q, unknown to the compiler", n)
		}
	}
	for n := range schemeByName {
		if !names[n] {
			t.Errorf("compiler accepts scheme %q missing from scenario.SchemeNames", n)
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
