package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vswapsim/internal/scenario"
)

var update = flag.Bool("update", false, "regenerate the golden fingerprints")

const goldenFile = "testdata/golden_quick.json"

// goldenOpts pins the determinism harness configuration: Quick mode at a
// small scale, strictly serial, so the goldens are the canonical serial
// reference the equivalence tests compare parallel execution against.
func goldenOpts() Options {
	return Options{Seed: 42, Scale: 0.125, Quick: true, Parallel: 1}
}

// The golden documents are every registry entry and every checked-in
// scenario file. Each test binary simulates them at goldenOpts() in two
// memoized passes, and every golden and serial-vs-parallel test at that
// configuration reads the passes instead of simulating:
//   - the serial pass runs each document alone at Parallel 1, spreading
//     the documents over GOMAXPROCS workers (two documents share no
//     state, since the cell memo lives on the invocation), so every
//     document simulates all of its cells;
//   - the parallel pass runs all of them in one RunAll at Parallel 4, so
//     the documents that read one cell share it there: fig5 and fig11,
//     fig3, fig9 and fig14 and their files, fig4 and fig14's files,
//     fleetN and fleet.yaml, backendN and backends.yaml.
// Comparing the passes thus also checks that a shared cell reads exactly
// as the same cell simulated for its document alone.

// goldenDoc is one golden document.
type goldenDoc struct {
	key string // the registry id, or "scenarios/<file>.yaml"
	exp Experiment
	sc  *scenario.Scenario // the parsed file; nil for a registry entry
}

// goldenRun is one document's result in one pass, with its
// machine-readable form: report, run records and failures as JSON.
type goldenRun struct {
	RunResult
	json []byte
}

func newGoldenRun(r RunResult) (goldenRun, error) {
	data, err := json.MarshalIndent(r.Report, "", "  ")
	return goldenRun{RunResult: r, json: data}, err
}

// goldenPass holds every document's run, in document order.
type goldenPass struct {
	runs []goldenRun
	// emitted lists the ids in the order RunAll emitted them (the
	// parallel pass only).
	emitted []string
}

// goldenDocs lists the golden documents: the registry in its order, then
// the scenario files sorted by name.
var goldenDocs = sync.OnceValues(func() ([]goldenDoc, error) {
	var docs []goldenDoc
	for _, e := range Registry {
		docs = append(docs, goldenDoc{key: e.ID, exp: e})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios found: %v", err)
	}
	for _, p := range paths {
		sc, err := scenario.Load(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		docs = append(docs, goldenDoc{key: "scenarios/" + filepath.Base(p), exp: FromScenario(sc), sc: sc})
	}
	return docs, nil
})

var serialPass = sync.OnceValues(func() (*goldenPass, error) {
	docs, err := goldenDocs()
	if err != nil {
		return nil, err
	}
	pass := &goldenPass{runs: make([]goldenRun, len(docs))}
	errs := make([]error, len(docs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pass.runs[i], errs[i] = newGoldenRun(RunAll([]Experiment{docs[i].exp}, goldenOpts(), nil)[0])
			}
		}()
	}
	for i := range docs {
		next <- i
	}
	close(next)
	wg.Wait()
	return pass, errors.Join(errs...)
})

var parallelPass = sync.OnceValues(func() (*goldenPass, error) {
	docs, err := goldenDocs()
	if err != nil {
		return nil, err
	}
	exps := make([]Experiment, len(docs))
	for i, d := range docs {
		exps[i] = d.exp
	}
	o := goldenOpts()
	o.Parallel = 4
	pass := &goldenPass{}
	for _, r := range RunAll(exps, o, func(r RunResult) { pass.emitted = append(pass.emitted, r.Experiment.ID) }) {
		run, err := newGoldenRun(r)
		if err != nil {
			return nil, err
		}
		pass.runs = append(pass.runs, run)
	}
	return pass, nil
})

// passes returns the golden documents and both passes over them.
func passes(t *testing.T) (docs []goldenDoc, serial, parallel *goldenPass) {
	t.Helper()
	serial, err := serialPass()
	if err == nil {
		parallel, err = parallelPass()
	}
	if err != nil {
		t.Fatalf("golden passes: %v", err)
	}
	docs, _ = goldenDocs() // both passes listed them
	return docs, serial, parallel
}

// serialRun returns the serial pass's run of the document key, without
// waiting for the parallel pass.
func serialRun(t *testing.T, key string) goldenRun {
	t.Helper()
	pass, err := serialPass()
	if err != nil {
		t.Fatalf("serial golden pass: %v", err)
	}
	docs, _ := goldenDocs()
	return pass.runs[docIndex(t, docs, key)]
}

// passRuns returns the serial and parallel runs of the document key.
func passRuns(t *testing.T, key string) (serial, parallel goldenRun) {
	t.Helper()
	docs, s, p := passes(t)
	i := docIndex(t, docs, key)
	return s.runs[i], p.runs[i]
}

// checkPassesAgree requires the document key to run healthy in both
// passes, to byte-identical JSON.
func checkPassesAgree(t *testing.T, key string) {
	t.Helper()
	s, p := passRuns(t, key)
	for _, r := range []goldenRun{s, p} {
		if len(r.Report.Failures) != 0 {
			t.Fatalf("%s: unexpected failures: %+v", key, r.Report.Failures)
		}
	}
	if !bytes.Equal(s.json, p.json) {
		t.Errorf("parallel run diverges from serial for %s (%d vs %d bytes)", key, len(p.json), len(s.json))
	}
}

func docIndex(t *testing.T, docs []goldenDoc, key string) int {
	t.Helper()
	for i, d := range docs {
		if d.key == key {
			return i
		}
	}
	t.Fatalf("no golden document %q", key)
	return -1
}

// TestGoldenFingerprints compares every registry entry's serial-pass
// fingerprint (SHA-256 over its tables' CSV and notes) against
// testdata/golden_quick.json. Regenerate with:
//
//	go test ./internal/experiment -run TestGoldenFingerprints -update
func TestGoldenFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, e := range Registry {
		got[e.ID] = serialRun(t, e.ID).Report.Fingerprint
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), goldenFile)
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for _, e := range Registry {
		w, ok := want[e.ID]
		if !ok {
			t.Errorf("%s: no golden fingerprint recorded (run with -update)", e.ID)
			continue
		}
		if got[e.ID] != w {
			t.Errorf("%s: fingerprint %s, golden %s — simulator output drifted; "+
				"if intentional, regenerate with -update", e.ID, got[e.ID][:12], w[:12])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("golden file has stale entry %q (run with -update)", id)
		}
	}
}

// TestPaperNotesCarryNoPrefix: Report.String prints a report's paper note
// after "paper: ", so a note that starts with that prefix prints it twice.
func TestPaperNotesCarryNoPrefix(t *testing.T) {
	for _, e := range Registry {
		if note := serialRun(t, e.ID).Report.PaperNote; strings.HasPrefix(note, "paper:") {
			t.Errorf("%s: paper note %q repeats the prefix Report.String prints", e.ID, note)
		}
	}
}

// fingerprint finishes r, as RunAll does, and returns its fingerprint.
func fingerprint(r *Report) string {
	r.finish()
	return r.Fingerprint
}

// TestFingerprintSensitivity guards the fingerprint itself: it must be
// stable across calls and change when any cell, title or note changes.
func TestFingerprintSensitivity(t *testing.T) {
	mk := func() *Report {
		tab := &Table{Title: "t", Columns: []string{"a", "b"}}
		tab.Add("1", "2")
		return &Report{ID: "x", Title: "T", Tables: []*Table{tab}, Notes: []string{"n"}}
	}
	base := fingerprint(mk())
	if base != fingerprint(mk()) {
		t.Fatal("fingerprint not stable")
	}
	cell := mk()
	cell.Tables[0].Rows[0][1] = "3"
	note := mk()
	note.Notes[0] = "m"
	title := mk()
	title.Tables[0].Title = "u"
	for name, r := range map[string]*Report{"cell": cell, "note": note, "table title": title} {
		if fingerprint(r) == base {
			t.Fatalf("changing a %s did not change the fingerprint", name)
		}
	}
}
