package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"vswapsim/internal/fault"
	"vswapsim/internal/swapback"
)

// TestBackendDefaultByteIdentical pins the transparency guarantee of the
// default tier in bytes: running with the swap-backend plumbing explicitly
// set to its defaults (hdd, writeback) produces output byte-identical to
// the pre-backend golden report.
func TestBackendDefaultByteIdentical(t *testing.T) {
	o := goldenOpts()
	o.TraceRing = 64 // the golden report embeds the trace tail
	o.Swapback = swapback.HDD
	o.SwapPolicy = swapback.PolicyWriteback
	got := jsonBytes(t, "fig3", o)
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("default swap backend perturbed the golden report bytes")
	}
}

// TestBackendSerialParallelIdentical extends the repo-wide determinism
// invariant to every non-default tier: identical seeds produce
// byte-identical JSON whether the sweep runs serially or on the parallel
// executor. The remote tier's seeded tail-latency stream and zswap's
// per-page compression draws must come from per-machine state only.
func TestBackendSerialParallelIdentical(t *testing.T) {
	for _, k := range []swapback.Kind{swapback.SSD, swapback.Zswap, swapback.Remote} {
		t.Run(k.String(), func(t *testing.T) {
			serial := goldenOpts()
			serial.Scale = 0.0625
			serial.Swapback = k
			parallel := serial
			parallel.Parallel = 8
			ja, jb := jsonBytes(t, "fig3", serial), jsonBytes(t, "fig3", parallel)
			var da JSONDocument
			if err := json.Unmarshal(ja, &da); err != nil {
				t.Fatal(err)
			}
			if da.Swapback != k.String() {
				t.Fatalf("document does not carry the backend: %q", da.Swapback)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("%s: serial and parallel JSON reports differ", k)
			}
		})
	}
}

// TestBackendTierCountersSurface runs fig3 on each non-default tier and
// checks the tier actually engaged: swapback.* op counters record the
// routed traffic, zswap admits pages to the compressed pool, and the
// remote tier logs tail-latency events. This is the SSD840-end-to-end
// regression (the ssd tier's device model driven through a full machine
// run) plus its zswap/remote analogues.
func TestBackendTierCountersSurface(t *testing.T) {
	counters := func(k swapback.Kind) map[string]int64 {
		o := goldenOpts()
		o.Scale = 0.0625
		o.Swapback = k
		var doc JSONDocument
		if err := json.Unmarshal(jsonBytes(t, "fig3", o), &doc); err != nil {
			t.Fatal(err)
		}
		sum := map[string]int64{}
		for _, r := range doc.Experiments[0].Runs {
			for name, v := range r.Report.Counters {
				sum[name] += v
			}
		}
		return sum
	}
	for _, tc := range []struct {
		kind    swapback.Kind
		nonzero []string
		zero    []string
	}{
		{swapback.SSD,
			[]string{"swapback.read.ops", "swapback.write.ops", "hostswap.read.ops"},
			[]string{"swapback.fast.store.pages", "swapback.remote.tail.events"}},
		{swapback.Zswap,
			[]string{"swapback.read.ops", "swapback.fast.store.pages", "swapback.fast.load.pages"},
			[]string{"swapback.remote.tail.events"}},
		{swapback.Remote,
			[]string{"swapback.read.ops", "swapback.remote.tail.events"},
			[]string{"swapback.fast.store.pages"}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			sum := counters(tc.kind)
			for _, name := range tc.nonzero {
				if sum[name] == 0 {
					t.Errorf("%s: counter %s is zero", tc.kind, name)
				}
			}
			for _, name := range tc.zero {
				if v := sum[name]; v != 0 {
					t.Errorf("%s: counter %s = %d, want 0", tc.kind, name, v)
				}
			}
		})
	}
}

// TestBackendFaultRegression threads a disk fault plan through every tier:
// each backend must absorb read and write errors (retry counters fire) and
// complete the run with the invariant auditor attached — no tier loses
// pages or wedges under injection.
func TestBackendFaultRegression(t *testing.T) {
	plan := fault.MustParse("disk-read-err:0.02;disk-write-err:0.02;disk-lat:0.05:1ms")
	for _, k := range swapback.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			o := faultOpts(plan)
			o.Swapback = k
			var doc JSONDocument
			if err := json.Unmarshal(jsonBytes(t, "fig3", o), &doc); err != nil {
				t.Fatal(err)
			}
			fired := int64(0)
			for _, r := range doc.Experiments[0].Runs {
				for name, v := range r.Report.Counters {
					if strings.HasPrefix(name, "fault.disk.") {
						fired += v
					}
				}
			}
			if fired == 0 {
				t.Fatalf("%s: no fault.disk.* counters fired under injection", k)
			}
		})
	}
}

// TestBackendPolicyVariantsRun: each tiering policy completes the zswap
// sweep and the policies actually differ — flat admits nothing to the
// compressed pool, hotfirst admits less than writeback and records
// promotions.
func TestBackendPolicyVariantsRun(t *testing.T) {
	stores := map[swapback.Policy]int64{}
	promotes := map[swapback.Policy]int64{}
	for _, p := range []swapback.Policy{swapback.PolicyWriteback, swapback.PolicyHot, swapback.PolicyFlat} {
		o := goldenOpts()
		o.Scale = 0.0625
		o.Swapback = swapback.Zswap
		o.SwapPolicy = p
		var doc JSONDocument
		if err := json.Unmarshal(jsonBytes(t, "fig3", o), &doc); err != nil {
			t.Fatal(err)
		}
		for _, r := range doc.Experiments[0].Runs {
			stores[p] += r.Report.Counters["swapback.fast.store.pages"]
			promotes[p] += r.Report.Counters["swapback.promote.pages"]
		}
	}
	if stores[swapback.PolicyFlat] != 0 {
		t.Errorf("flat policy admitted %d pages", stores[swapback.PolicyFlat])
	}
	if stores[swapback.PolicyWriteback] == 0 {
		t.Error("writeback policy admitted nothing")
	}
	if s := stores[swapback.PolicyHot]; s == 0 || s >= stores[swapback.PolicyWriteback] {
		t.Errorf("hotfirst admitted %d pages, want in (0, %d)", s, stores[swapback.PolicyWriteback])
	}
	if promotes[swapback.PolicyHot] == 0 {
		t.Error("hotfirst recorded no promotions")
	}
}

// TestBackendNFingerprintStable: the registry experiment is deterministic
// — its serial and parallel golden-pass runs fingerprint identically —
// and names every tier.
func TestBackendNFingerprintStable(t *testing.T) {
	s, p := passRuns(t, "backendN")
	a, b := s.Report, p.Report
	if fa, fb := a.Fingerprint, b.Fingerprint; fa != fb {
		t.Fatalf("backendN fingerprint unstable: %s vs %s", fa, fb)
	}
	csv := a.Tables[0].CSV()
	for _, k := range swapback.AllKinds() {
		if !strings.Contains(csv, k.String()) {
			t.Errorf("backendN runtime table missing tier %s:\n%s", k, csv)
		}
	}
	if len(a.Tables) < 2 {
		t.Fatalf("backendN has %d tables, want 2", len(a.Tables))
	}
}

// TestBackendsScenarioMatchesYAML pins the scenario file against the
// in-tree engine: it loads, its per-tier grid runs, and all declared
// assertions pass (the note CI greps for).
func TestBackendsScenarioMatchesYAML(t *testing.T) {
	rep := serialRun(t, "scenarios/backends.yaml").Report
	want := ""
	for _, n := range rep.Notes {
		if strings.Contains(n, "assertions:") {
			want = n
		}
	}
	if !strings.Contains(want, "7/7 passed") {
		t.Fatalf("backends.yaml assertions note = %q, want 7/7 passed", want)
	}
	// Every tier/scheme cell appears as its own row.
	csv := rep.Tables[0].CSV()
	for _, k := range swapback.AllKinds() {
		for _, s := range []string{"baseline", "vswapper"} {
			if !strings.Contains(csv, fmt.Sprintf("%s/%s", k, s)) {
				t.Errorf("scenario table missing cell %s/%s:\n%s", k, s, csv)
			}
		}
	}
}
