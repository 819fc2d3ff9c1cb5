package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

const goldenReportFile = "testdata/golden_report_fig3.json"

// jsonBytes runs one experiment and returns the serialized JSONDocument.
func jsonBytes(t *testing.T, id string, o Options) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	doc := BuildJSONDocument(o, []*Report{RunAll([]Experiment{e}, o, nil)[0].Report})
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestGoldenJSONReport pins the full machine-readable report of fig3 at the
// golden configuration — schema, counters, histograms, phase accounting and
// the trace tail all lock in at once. Regenerate with:
//
//	go test ./internal/experiment -run TestGoldenJSONReport -update
func TestGoldenJSONReport(t *testing.T) {
	o := goldenOpts()
	o.TraceRing = 64 // exercise the trace tail in the report
	got := jsonBytes(t, "fig3", o)

	if *update {
		if err := os.WriteFile(goldenReportFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), goldenReportFile)
		return
	}
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON report drifted from %s (%d vs %d bytes) — if intentional, "+
			"regenerate with -update", goldenReportFile, len(got), len(want))
	}
}

// TestJSONReportShape validates the schema invariants the golden bytes
// alone don't explain: every run has counters, at least three wired
// histograms exist across runs, phases are consistent, and the trace tail
// is present when a ring was attached.
func TestJSONReportShape(t *testing.T) {
	o := goldenOpts()
	o.TraceRing = 64
	var doc JSONDocument
	if err := json.Unmarshal(jsonBytes(t, "fig3", o), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig3" {
		t.Fatalf("document shape: %+v", doc.Experiments)
	}
	runs := doc.Experiments[0].Runs
	if len(runs) == 0 {
		t.Fatal("no run records collected")
	}
	histSeen := map[string]bool{}
	for _, r := range runs {
		if r.Label == "" || r.Report == nil {
			t.Fatalf("malformed run record: %+v", r)
		}
		if len(r.Report.Counters) == 0 {
			t.Errorf("%s: no counters", r.Label)
		}
		for name, h := range r.Report.Histograms {
			histSeen[name] = true
			if h.Count <= 0 {
				t.Errorf("%s: empty histogram %s in report", r.Label, name)
			}
			if h.P50NS > h.P95NS || h.P95NS > h.P99NS {
				t.Errorf("%s: %s quantiles not monotonic: %d/%d/%d",
					r.Label, name, h.P50NS, h.P95NS, h.P99NS)
			}
		}
		ph := r.Report.Phases
		if ph.TotalNS <= 0 {
			t.Errorf("%s: total time %d", r.Label, ph.TotalNS)
		}
		for _, v := range []int64{ph.GuestRunNS, ph.HostFaultNS, ph.DiskWaitNS, ph.ReclaimScanNS} {
			if v < 0 || v > ph.TotalNS {
				t.Errorf("%s: phase value %d outside [0, %d]", r.Label, v, ph.TotalNS)
			}
		}
		if len(r.Report.Trace) == 0 {
			t.Errorf("%s: trace ring attached but tail empty", r.Label)
		}
	}
	if len(histSeen) < 3 {
		t.Fatalf("only %d distinct histograms wired across runs: %v", len(histSeen), histSeen)
	}
}

// TestJSONSerialParallelEquivalence is the acceptance criterion in bytes:
// the -json output of a sweep experiment is bit-identical between the
// serial and the parallel golden pass, including run-record order.
func TestJSONSerialParallelEquivalence(t *testing.T) {
	s, p := passRuns(t, "fig5")
	if !bytes.Equal(s.json, p.json) {
		t.Fatal("serial and parallel JSON reports differ")
	}
}

// TestRunRecordsDeterministicOrder checks the collection layer directly:
// records added in any order sort to the same sequence.
func TestRunRecordsDeterministicOrder(t *testing.T) {
	recs := serialRun(t, "fig10").Report.Runs
	if len(recs) < 2 {
		t.Fatalf("want multiple run records, got %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Label > recs[i].Label {
			t.Fatalf("records not sorted: %q before %q", recs[i-1].Label, recs[i].Label)
		}
	}
}
