package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestClusterParallelEquivalence extends the repo-wide determinism
// invariant to the cluster cells: the clusterN registry entry and
// `vswapsim run scenarios/cluster.yaml` must each produce byte-identical
// JSON reports in the serial and the parallel golden pass. clusterN takes
// its sizing from cluster.yaml, but the two ids key different seed
// streams, so each gets its own check.
func TestClusterParallelEquivalence(t *testing.T) {
	for _, c := range []struct{ name, key string }{
		{"clusterN", "clusterN"},
		{"cluster", "scenarios/cluster.yaml"},
	} {
		t.Run(c.name, func(t *testing.T) { checkPassesAgree(t, c.key) })
	}
}

// TestClusterScenarioMatchesYAML pins scenarios/cluster.yaml against the
// engine on its serial golden-pass report: all declared assertions pass
// (the note CI greps for), every policy is a table column, and killed
// guests render as censored latency.
func TestClusterScenarioMatchesYAML(t *testing.T) {
	rep := serialRun(t, "scenarios/cluster.yaml").Report
	want := ""
	for _, n := range rep.Notes {
		if strings.Contains(n, "assertions:") {
			want = n
		}
	}
	if !strings.Contains(want, "7/7 passed") {
		t.Fatalf("cluster.yaml assertions note = %q, want 7/7 passed\nnotes: %v", want, rep.Notes)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("cluster scenario produced %d tables, want 1", len(rep.Tables))
	}
	for _, r := range clusterScenario().Cluster.Remediations {
		found := false
		for _, col := range rep.Tables[0].Columns {
			if col == r.String() {
				found = true
			}
		}
		if !found {
			t.Errorf("policy table missing remediation column %q: %v", r, rep.Tables[0].Columns)
		}
	}
	// The kill column carries the censoring marker: murdered guests render
	// as unbounded latency, not a small number.
	csv := rep.Tables[0].CSV()
	if !strings.Contains(csv, "inf") || !strings.Contains(csv, "killed") {
		t.Errorf("kill column lacks the censored-latency rendering:\n%s", csv)
	}
}

// TestFailuresCarryAuditTail: with the invariant auditor attached, a
// cell the event budget kills records the auditor's recent checks, in
// single, dynamic and cluster mode alike (a cluster's come from its
// audit group).
func TestFailuresCarryAuditTail(t *testing.T) {
	for _, name := range []string{"fault-storm", "fleet", "cluster"} {
		t.Run(name, func(t *testing.T) {
			o := starvedOpts()
			o.AuditEvery = 512
			r := RunAll([]Experiment{FromScenario(embeddedScenario(name)())}, o, nil)[0]
			if len(r.Failures) == 0 {
				t.Fatal("the budget killed no cell")
			}
			for _, f := range r.Failures {
				if len(f.AuditTail) == 0 {
					t.Errorf("failure %s (%s) has no audit tail", f.Label, f.Kind)
				}
			}
		})
	}
}

// TestClusterOffByteIdentical proves the cluster subsystem is inert when
// unused: a pre-cluster experiment run at the golden configuration still
// reproduces the pre-PR golden report bytes, and a pre-cluster scenario
// still matches its recorded fingerprint. Adding the cluster machinery
// must not perturb a single byte of non-cluster output.
func TestClusterOffByteIdentical(t *testing.T) {
	o := goldenOpts()
	o.TraceRing = 64 // the golden report embeds the trace tail
	got := jsonBytes(t, "fig3", o)
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cluster subsystem perturbed the non-cluster golden report bytes")
	}
}
