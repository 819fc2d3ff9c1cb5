package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vswapsim/internal/fault"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
)

// auditStride lets the property sweep rerun with the auditor on every
// event after structural changes to the audited state (flat swap/file
// tables, owner slabs):
//
//	go test ./internal/experiment -run TestFaultPlanPropertySweep -auditstride 1
var auditStride = flag.Int("auditstride", 2048,
	"invariant-audit stride for the fault property sweep (1 = audit every event)")

// faultOpts is the fault-test configuration: small and quick, with the
// invariant auditor strided tightly enough to catch corruption close to
// its origin without dominating runtime.
func faultOpts(plan fault.Plan) Options {
	o := goldenOpts()
	o.Scale = 0.0625
	o.Faults = plan
	o.AuditEvery = 2048
	return o
}

// TestFaultPlanPropertySweep is the property test over the fault space:
// randomized plans across many seeds run fig3 in quick mode with the
// invariant auditor attached. Any violation carries the seed and the
// canonical plan spec, so a failure here is replayable with
//
//	go run ./cmd/vswapsim -run fig3 -quick -scale 0.0625 -seed <seed> \
//	    -faults '<spec>' -swapback <tier> -auditevery 1
func TestFaultPlanPropertySweep(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := fault.RandomPlan(seed)
			o := faultOpts(plan)
			o.AuditEvery = *auditStride
			o.Seed = 1000 + seed // vary the machine streams along with the plan
			// Cycle the swap-backend tier with the seed so the sweep
			// exercises every tier's fault handling under the auditor,
			// not just the default device.
			kinds := swapback.AllKinds()
			o.Swapback = kinds[int(seed)%len(kinds)]
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d, plan %q, backend %s: %v", seed, plan, o.Swapback, r)
				}
			}()
			e, err := ByID("fig3")
			if err != nil {
				t.Fatal(err)
			}
			e.Run(o)
		})
	}
}

// TestFaultMetamorphicSerialParallel is the metamorphic determinism
// property under injection: an identical seed and non-empty plan must
// produce byte-identical JSON whether the sweep runs serially or on the
// parallel executor — injected faults come from per-machine streams, never
// from shared state.
func TestFaultMetamorphicSerialParallel(t *testing.T) {
	plan := fault.MustParse("disk-read-err:0.01;disk-lat:0.02:1ms;swapin-fail:0.02;map-poison:0.01")
	serial := faultOpts(plan)
	parallel := faultOpts(plan)
	parallel.Parallel = 8
	a := jsonBytes(t, "fig5", serial)
	b := jsonBytes(t, "fig5", parallel)
	var da JSONDocument
	if err := json.Unmarshal(a, &da); err != nil {
		t.Fatal(err)
	}
	if da.Faults != plan.String() {
		t.Fatalf("document does not carry the plan: %q", da.Faults)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("serial and parallel JSON reports differ under fault injection")
	}
}

// TestEmptyFaultPlanMatchesGolden pins the zero-overhead-when-off
// guarantee in bytes: running with a parsed-but-empty plan (and the
// injection plumbing threaded through every layer) produces output
// byte-identical to the pre-injection golden report.
func TestEmptyFaultPlanMatchesGolden(t *testing.T) {
	empty, err := fault.ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOpts()
	o.TraceRing = 64 // the golden report embeds the trace tail
	o.Faults = empty
	got := jsonBytes(t, "fig3", o)
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("empty fault plan perturbed the golden report bytes")
	}
}

// TestFaultCountersSurfaceInReport: a non-empty plan shows up in the JSON
// document (the faults field) and at least one run's counters record
// injected firings — the contract CI's jq validation relies on.
func TestFaultCountersSurfaceInReport(t *testing.T) {
	plan := fault.MustParse("disk-read-err:0.05;disk-lat:0.1:1ms;swapin-fail:0.05")
	var doc JSONDocument
	if err := json.Unmarshal(jsonBytes(t, "fig3", faultOpts(plan)), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Faults != plan.String() {
		t.Fatalf("document faults = %q, want %q", doc.Faults, plan.String())
	}
	fired := int64(0)
	for _, r := range doc.Experiments[0].Runs {
		for name, v := range r.Report.Counters {
			if strings.HasPrefix(name, "fault.") {
				fired += v
			}
		}
	}
	if fired == 0 {
		t.Fatal("no fault.* counters in any run record")
	}
}

// corruptingCell runs one idle machine through the cell envelope, then
// drives a counter backwards, which fails the final audit's monotonicity
// pass whenever an auditor is attached.
func corruptingCell(o Options) ([]RunRecord, *FailureRecord) {
	return o.normalized().runCell("corrupt", 9, func(mc hyper.MachineConfig) ([]cellHost, func() error) {
		mc.HostMemPages = 1 << 12
		m := hyper.NewMachine(mc)
		return []cellHost{{m: m}}, func() error {
			m.Env.Go("idle", func(p *sim.Proc) {
				p.Sleep(sim.Millisecond)
				m.Shutdown()
			})
			m.Run()
			m.Met.Add(metrics.DiskOps, -1)
			return nil
		}
	})
}

// TestAuditViolationMessageCarriesReplay: the envelope's audit failure
// must name the experiment seed and the plan spec so a property-sweep
// failure can be replayed from the failure message alone.
func TestAuditViolationMessageCarriesReplay(t *testing.T) {
	o := faultOpts(fault.MustParse("swapin-fail:0.5"))
	runs, fail := corruptingCell(o)
	if fail == nil {
		t.Fatalf("no failure on an invariant violation (runs %+v)", runs)
	}
	if fail.Kind != FailPanic || len(fail.AuditTail) == 0 {
		t.Errorf("failure kind %q with %d audit lines, want %q with the audit tail", fail.Kind, len(fail.AuditTail), FailPanic)
	}
	for _, want := range []string{fmt.Sprintf("seed=%d", o.Seed), o.Faults.String()} {
		if !strings.Contains(fail.Message, want) {
			t.Errorf("violation message %q missing replay datum %q", fail.Message, want)
		}
	}
}

// TestAttachAuditDisabledIsNoop: with auditing off the envelope attaches
// no auditor, so the same corrupted machine's cell completes.
func TestAttachAuditDisabledIsNoop(t *testing.T) {
	o := faultOpts(fault.Plan{})
	o.AuditEvery = 0
	if runs, fail := corruptingCell(o); fail != nil || len(runs) != 1 || runs[0].Label != "corrupt" {
		t.Fatalf("runs %+v, failure %+v; want one completed record", runs, fail)
	}
}

// TestEveryCellKindHonorsHostKnobs: the host knobs reach every machine of
// every cell kind. A single, a dynamic and a cluster cell each run with a
// trace ring and a fault plan, and every host record must carry a trace
// tail and fault.* counters.
func TestEveryCellKindHonorsHostKnobs(t *testing.T) {
	for _, c := range []struct{ name, doc string }{
		{"single", `
scenario: knobs-single
title: "one-scheme 200 MB read"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 100
schemes: [baseline]
table:
  title: "runtime [sec]"
workload:
  kind: seqread
  file_mb: 200
`},
		{"dynamic", `
scenario: knobs-dynamic
title: "3-guest metis fleet on a 1 GB host"
mode: dynamic
fleet:
  counts: [3]
  memory_mb: 512
  host_mb: 1024
  vcpus: 1
  stagger_sec: 1
  disk_mb: 4096
schemes: [vswapper]
table:
  title: "mean guest runtime [sec]"
workload:
  kind: metis
  input_mb: 48
  table_mb: 64
`},
		{"cluster", `
scenario: knobs-cluster
title: "2-host, 8-guest cluster"
mode: cluster
cluster:
  hosts: 2
  host_mb: 512
  guests: 8
  guest_mb: 256
  working_set_pct: [60, 95]
  units: 4
  remediation: none
  max_commit_factor: 4
schemes: [vswapper]
table:
  title: "fleet latency"
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := scenario.Parse([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Seed: 42, Scale: 0.0625, Quick: true, Parallel: 1,
				TraceRing: 16, Faults: fault.MustParse("disk-lat:0.1:1ms")}
			r := RunAll([]Experiment{FromScenario(sc)}, o, nil)[0]
			if len(r.Report.Failures) > 0 {
				t.Fatalf("failed cells: %+v", r.Report.Failures)
			}
			hosts := 0
			for _, run := range r.Report.Runs {
				if strings.HasSuffix(run.Label, "/fleet") {
					continue
				}
				hosts++
				if len(run.Report.Trace) == 0 {
					t.Errorf("%s: no trace tail", run.Label)
				}
				fired := false
				for name := range run.Report.Counters {
					fired = fired || strings.HasPrefix(name, "fault.")
				}
				if !fired {
					t.Errorf("%s: no fault.* counters", run.Label)
				}
			}
			if hosts == 0 {
				t.Fatal("no host records")
			}
		})
	}
}
