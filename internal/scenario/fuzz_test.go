package scenario

import (
	"fmt"
	"slices"
	"testing"

	"vswapsim/internal/cluster"
	"vswapsim/internal/swapback"
)

// known fails the test unless v is a value of its vocabulary: its name
// parses back to it.
func known[T comparable](t *testing.T, v T, parse func(string) (T, error)) {
	t.Helper()
	name := fmt.Sprint(v)
	if got, err := parse(name); err != nil || got != v {
		t.Fatalf("accepted scenario holds %s, outside its vocabulary", name)
	}
}

// FuzzScenarioParse checks the scenario parser's core contract on
// arbitrary input: it never panics, every rejection is a positioned
// *ParseError (line >= 1, col >= 1), and every accepted document obeys
// the invariants the compiler in internal/experiment relies on, read off
// the typed values: a declared mode, at least one scheme, every decoded
// name a value of its vocabulary, and a workload kind the executor can
// build (or, in cluster mode, a remediation list in place of a
// workload), and a sweep with one backend, no assertions and no
// timeline.
func FuzzScenarioParse(f *testing.F) {
	seeds := []string{
		validSingle,
		validCluster,
		"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 0\n",
		"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts:\n    - name: a\n      mem_mb: 512\n    - name: a\n      mem_mb: 512\n",
		"cluster:\n  remediation: [migrate, teleport]\n  threshold: 1.5\n",
		"",
		"scenario: x\n",
		"scenario: x\ntitle: t\nmode: turbo\n",
		"scenario: x\ntitle: t\nmode: single\nfleet: {memory_mb: 512}\n",
		"scenario: x\ntitle: t\nmode: single\nfleet:\n\tmemory_mb: 512\n",
		"schemes: [baseline, vswapper, mapper]\n",
		"timeline:\n  - at_sec: 0.5\n    event: balloon_set\n    target_mb: 384\n",
		"assertions:\n  - counter: disk.ops\n    op: \"==\"\n",
		"workload:\n  kind: seqread\n  file_mb: 1e99\n",
		"# only a comment\n---\n...\n",
		"a: \"unterminated\nb: 'quote\n",
		"fleet:\n  counts: [1, 2, 3,\n",
		"scenario: x\nscenario: x\n",
		validSweep,
		"fleet:\n  memory_mb: 512\n  actual_mb: [512, 512]\n  quick_actual_mb: [0]\n",
		"fleet:\n  actual_mb: 100\n  quick_actual_mb: [100]\n",
		"workload:\n  kind: eclipse\n  heap_mb: 128\n  iterations: 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := Parse([]byte(doc))
		if err != nil {
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("rejection is %T, want *ParseError: %v", err, err)
			}
			if pe.Line < 1 || pe.Col < 1 {
				t.Fatalf("rejection lacks a position: %+v", pe)
			}
			if pe.File != "" {
				t.Fatalf("Parse must not set File (Load does): %+v", pe)
			}
			return
		}
		if sc == nil {
			t.Fatal("nil scenario with nil error")
		}
		if sc.Mode != ModeSingle && sc.Mode != ModeDynamic && sc.Mode != ModeCluster {
			t.Fatalf("accepted scenario has mode %q", sc.Mode)
		}
		if len(sc.Schemes) == 0 {
			t.Fatal("accepted scenario has no schemes")
		}
		for _, s := range sc.Schemes {
			known(t, s.Scheme, parseScheme)
		}
		for _, k := range sc.Backends {
			known(t, k, parseBackend)
		}
		if sc.Policy != nil {
			known(t, *sc.Policy, swapback.ParsePolicy)
		}
		for _, a := range sc.Assertions {
			if a.Backend != nil && !slices.Contains(sc.Backends, *a.Backend) {
				t.Fatalf("accepted assertion %s reads an undeclared backend", a)
			}
		}
		if sc.Mode == ModeCluster {
			// Cluster scenarios carry no workload stanza; the executor
			// instead needs a sized fleet and a policy list.
			if len(sc.Cluster.Remediations) == 0 {
				t.Fatal("accepted cluster scenario has no remediations")
			}
			known(t, sc.Cluster.Packing, cluster.ParsePacking)
			for _, r := range sc.Cluster.Remediations {
				known(t, r, cluster.ParseRemediation)
			}
			if len(sc.Cluster.HostList) == 0 && sc.Cluster.Hosts < 1 {
				t.Fatal("accepted cluster scenario has no hosts")
			}
			if sc.Cluster.Guests < 1 {
				t.Fatal("accepted cluster scenario has no guests")
			}
			return
		}
		switch sc.Workload.Kind {
		case KindSeqRead, KindAllocTouch, KindMetis, KindPbzip2, KindKernbench, KindEclipse:
		default:
			t.Fatalf("accepted scenario has workload kind %q", sc.Workload.Kind)
		}
		if sc.Fleet.Sweep != nil && (len(sc.Backends) > 1 || len(sc.Assertions) > 0 || len(sc.Timeline) > 0) {
			t.Fatal("accepted sweep declares a backend list, assertions or a timeline")
		}
	})
}
