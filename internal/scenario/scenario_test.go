package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vswapsim/internal/cluster"
	"vswapsim/internal/swapback"
)

// validSingle is a minimal well-formed single-mode scenario used as the
// base for the malformed-document table below.
const validSingle = `scenario: demo
title: "demo run"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 100
  warmup: true
schemes: [baseline, vswapper]
workload:
  kind: seqread
  file_mb: 200
table:
  title: "runtime [sec]"
`

func TestParseValidSingle(t *testing.T) {
	sc, err := Parse([]byte(validSingle))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || sc.Mode != ModeSingle {
		t.Fatalf("parsed %+v", sc)
	}
	if sc.Fleet.MemoryMB != 512 || sc.Fleet.ActualMB != 100 || !sc.Fleet.Warmup {
		t.Fatalf("fleet %+v", sc.Fleet)
	}
	if len(sc.Schemes) != 2 || sc.Schemes[0].Scheme != Baseline || sc.Schemes[1].Scheme != VSwapper {
		t.Fatalf("schemes %+v", sc.Schemes)
	}
	if sc.Workload.Kind != KindSeqRead || sc.Workload.FileMB != 200 {
		t.Fatalf("workload %+v", sc.Workload)
	}
	if sc.TableTitle != "runtime [sec]" {
		t.Fatalf("table title %q", sc.TableTitle)
	}
}

// validSweep is a single-mode sweep: actual_mb as a sequence with a
// quick list, a kernbench workload, and a runtime and a counter panel.
const validSweep = `scenario: sweep
title: "sweep"
mode: single
fleet:
  memory_mb: 512
  actual_mb: [512, 320, 192]
  quick_actual_mb: [512, 192]
  warmup: true
schemes: [baseline, vswapper]
workload:
  kind: kernbench
  files: 2800
  quick_files: 600
panels:
  - title: "runtime [min]"
    source: runtime
    per: 60
  - title: "remaps [1000s]"
    source: counter
    counter: vswap.preventer.remaps
    per: 1000
`

// TestParseSweep: actual_mb as a sequence makes a sweep, quick_actual_mb
// replaces it under -quick, and a sweep's panels take any workload kind,
// the runtime panel with its per.
func TestParseSweep(t *testing.T) {
	sc, err := Parse([]byte(validSweep))
	if err != nil {
		t.Fatal(err)
	}
	f := sc.Fleet
	if f.ActualMB != 0 || !slices.Equal(f.Sweep, []int{512, 320, 192}) || !slices.Equal(f.QuickSweep, []int{512, 192}) {
		t.Fatalf("fleet %+v", f)
	}
	if got := f.Sizes(false); !slices.Equal(got, f.Sweep) {
		t.Errorf("Sizes(false) = %v, want the sweep", got)
	}
	if got := f.Sizes(true); !slices.Equal(got, f.QuickSweep) {
		t.Errorf("Sizes(true) = %v, want the quick sweep", got)
	}
	if w := sc.Workload; w != (Workload{Kind: KindKernbench, Files: 2800, QuickFiles: 600}) {
		t.Errorf("workload %+v", w)
	}
	if full, q := sc.Workload.FileCount(false), sc.Workload.FileCount(true); full != 2800 || q != 600 {
		t.Errorf("FileCount = %d, quick %d; want 2800, quick 600", full, q)
	}
	want := []Panel{{Title: "runtime [min]", Per: 60}, {Title: "remaps [1000s]", Counter: "vswap.preventer.remaps", Per: 1000}}
	if !slices.Equal(sc.Panels, want) {
		t.Errorf("panels %+v, want %+v", sc.Panels, want)
	}

	// Without a quick list a sweep runs its list under -quick too, and a
	// fixed file runs its one allocation.
	f.QuickSweep = nil
	if got := f.Sizes(true); !slices.Equal(got, f.Sweep) {
		t.Errorf("Sizes(true) without a quick list = %v, want the sweep", got)
	}
	fixed, err := Parse([]byte(validSingle))
	if err != nil {
		t.Fatal(err)
	}
	if got := fixed.Fleet.Sizes(true); !slices.Equal(got, []int{100}) || fixed.Fleet.Sweep != nil {
		t.Errorf("fixed file runs %v (sweep %v), want [100]", got, fixed.Fleet.Sweep)
	}
}

// TestParseWorkloadKinds: each workload kind decodes its fields.
func TestParseWorkloadKinds(t *testing.T) {
	for _, c := range []struct {
		body string
		want Workload
	}{
		{"  kind: seqread\n  file_mb: 200\n  iterations: 8\n  quick_iterations: 4\n",
			Workload{Kind: KindSeqRead, FileMB: 200, Iterations: 8, QuickIterations: 4}},
		{"  kind: alloctouch\n  size_mb: 200\n", Workload{Kind: KindAllocTouch, SizeMB: 200}},
		{"  kind: metis\n  input_mb: 300\n  table_mb: 1024\n", Workload{Kind: KindMetis, InputMB: 300, TableMB: 1024}},
		{"  kind: pbzip2\n  input_mb: 448\n", Workload{Kind: KindPbzip2, InputMB: 448}},
		{"  kind: kernbench\n  files: 2800\n", Workload{Kind: KindKernbench, Files: 2800}},
		{"  kind: eclipse\n  heap_mb: 128\n  jvm_anon_mb: 230\n  workspace_mb: 120\n  iterations: 6\n  quick_iterations: 3\n",
			Workload{Kind: KindEclipse, HeapMB: 128, JVMAnonMB: 230, WorkspaceMB: 120, Iterations: 6, QuickIterations: 3}},
	} {
		doc := strings.Replace(validSingle, "  kind: seqread\n  file_mb: 200\n", c.body, 1)
		sc, err := Parse([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", c.want.Kind, err)
			continue
		}
		if sc.Workload != c.want {
			t.Errorf("%s decodes to %+v, want %+v", c.want.Kind, sc.Workload, c.want)
		}
	}
}

// sweepDoc is a single-mode file whose fleet allocation lines, workload
// body and trailing sections are given. With one allocation line, the
// workload body starts at line 9 and the table at line 11.
func sweepDoc(actual, workload, tail string) string {
	return "scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n" + actual +
		"schemes: [baseline]\nworkload:\n" + workload + "table:\n  title: t\n" + tail
}

// vocabulary lists a vocabulary as its owner defines it: the name of
// every value from zero up that the owner's parser reads back.
func vocabulary[T ~int | ~uint8](parse func(string) (T, error)) []string {
	var names []string
	for v := T(0); ; v++ {
		if got, err := parse(fmt.Sprint(v)); err != nil || got != v {
			return names
		}
		names = append(names, fmt.Sprint(v))
	}
}

// TestVocabularyRoundTrip: every name of each vocabulary a scenario
// spells decodes from a minimal document into the value whose String is
// that name, and an unknown name fails with the message listing the
// owner's names, at the line and column of the name (of the key, for
// policy).
func TestVocabularyRoundTrip(t *testing.T) {
	single := func(line string) func(string) string {
		return func(name string) string {
			return strings.Replace(validSingle, "mode: single\n", "mode: single\n"+line+name+"\n", 1)
		}
	}
	clusterDoc := func(packing, remedy string) string {
		return "scenario: c\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n" +
			"  guests: 4\n  guest_mb: 128\n  packing: " + packing + "\n  remediation: " + remedy +
			"\nschemes: [vswapper]\ntable:\n  title: t\n"
	}
	cases := []struct {
		vocab     string
		names     []string
		doc       func(name string) string
		decoded   func(sc *Scenario) fmt.Stringer
		msg       string // for the name "bogus"
		line, col int
	}{
		{"scheme", vocabulary(parseScheme),
			func(name string) string {
				return strings.Replace(validSingle, "[baseline, vswapper]", "["+name+"]", 1)
			},
			func(sc *Scenario) fmt.Stringer { return sc.Schemes[0].Scheme },
			`unknown scheme "bogus" (valid: baseline, balloon+base, mapper, vswapper, balloon+vswap)`, 8, 11},
		{"backend", vocabulary(swapback.ParseKind), single("backend: "),
			func(sc *Scenario) fmt.Stringer { return sc.Backends[0] },
			`unknown backend "bogus" (valid: hdd, remote, ssd, zswap)`, 4, 10},
		{"policy", vocabulary(swapback.ParsePolicy), single("policy: "),
			func(sc *Scenario) fmt.Stringer { return *sc.Policy },
			`unknown policy "bogus" (valid: flat, hotfirst, writeback)`, 4, 1},
		{"packing", vocabulary(cluster.ParsePacking),
			func(name string) string { return clusterDoc(name, "none") },
			func(sc *Scenario) fmt.Stringer { return sc.Cluster.Packing },
			`unknown packing "bogus" (valid: first-fit, worst-fit, balanced-pressure)`, 9, 12},
		{"remediation", vocabulary(cluster.ParseRemediation),
			func(name string) string { return clusterDoc("first-fit", name) },
			func(sc *Scenario) fmt.Stringer { return sc.Cluster.Remediations[0] },
			`unknown remediation "bogus" (valid: none, reballoon, migrate, kill)`, 10, 16},
	}
	for _, c := range cases {
		t.Run(c.vocab, func(t *testing.T) {
			if len(c.names) < 3 {
				t.Fatalf("owner lists %v", c.names)
			}
			for _, name := range c.names {
				sc, err := Parse([]byte(c.doc(name)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := c.decoded(sc).String(); got != name {
					t.Errorf("%s decodes to %s", name, got)
				}
			}
			_, err := Parse([]byte(c.doc("bogus")))
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Msg != c.msg || pe.Line != c.line || pe.Col != c.col {
				t.Errorf("unknown %s: got %v, want %d:%d: %s", c.vocab, err, c.line, c.col, c.msg)
			}
		})
	}
}

func TestParseValidDynamic(t *testing.T) {
	doc := `scenario: dyn
title: "dynamic demo"
mode: dynamic
fleet:
  counts: [1, 4]
  quick_counts: [1]
  memory_mb: 2048
  host_mb: 8192
schemes: [baseline, vswapper]
workload:
  kind: metis
  input_mb: 300
  table_mb: 1024
table:
  title: "mean guest runtime [sec]"
assertions:
  - counter: workload.mean_runtime_sec
    left: vswapper
    op: "<="
    right: baseline
  - counter: workload.killed
    scheme: vswapper
    op: "=="
    value: 0
    guests: 4
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.VCPUs != 2 || sc.Fleet.StaggerSec != 10 || sc.Fleet.DiskMB != 20*1024 {
		t.Fatalf("dynamic fleet defaults %+v", sc.Fleet)
	}
	if full, q := sc.Fleet.GuestCounts(false), sc.Fleet.GuestCounts(true); !slices.Equal(full, []int{1, 4}) || !slices.Equal(q, []int{1}) {
		t.Errorf("GuestCounts = %v, quick %v; want [1 4], quick [1]", full, q)
	}
	if len(sc.Assertions) != 2 || sc.Assertions[0].Threshold() || !sc.Assertions[1].Threshold() {
		t.Fatalf("assertions %+v", sc.Assertions)
	}
	if sc.Assertions[1].Guests != 4 {
		t.Fatalf("guests selector %+v", sc.Assertions[1])
	}
}

// validCluster is a minimal well-formed cluster-mode scenario; it doubles
// as a fuzz corpus seed.
const validCluster = `scenario: clu
title: "cluster demo"
mode: cluster
cluster:
  hosts: 2
  host_mb: 512
  guests: 6
  guest_mb: 128
  working_set_pct: [50, 90]
  remediation: [none, migrate, kill]
  threshold: 0.2
schemes: [vswapper]
table:
  title: "fleet latency"
assertions:
  - counter: guest_p95_ms
    op: "<="
    left: migrate
    right: kill
  - counter: cluster.kills
    scheme: migrate
    op: "=="
    value: 0
`

func TestParseValidCluster(t *testing.T) {
	sc, err := Parse([]byte(validCluster))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "clu" || sc.Mode != ModeCluster {
		t.Fatalf("parsed %+v", sc)
	}
	cs := sc.Cluster
	if cs.Hosts != 2 || cs.HostMB != 512 || cs.Guests != 6 || cs.GuestMB != 128 {
		t.Fatalf("cluster sizing %+v", cs)
	}
	if cs.WSMinPct != 50 || cs.WSMaxPct != 90 {
		t.Fatalf("working set %+v", cs)
	}
	// disk_mb defaults to 4x guest_mb; packing defaults to the pressure
	// packer.
	if cs.DiskMB != 4*cs.GuestMB || cs.Packing != cluster.BalancedPressure {
		t.Fatalf("cluster defaults %+v", cs)
	}
	if len(cs.Remediations) != 3 || cs.Remediations[1] != cluster.RemedyMigrate {
		t.Fatalf("remediations %+v", cs.Remediations)
	}
	if cs.Threshold != 0.2 {
		t.Fatalf("threshold %v", cs.Threshold)
	}
	if len(sc.Assertions) != 2 || sc.Assertions[0].Threshold() || !sc.Assertions[1].Threshold() {
		t.Fatalf("assertions %+v", sc.Assertions)
	}
}

func TestParseClusterHostList(t *testing.T) {
	doc := `scenario: clu2
title: t
mode: cluster
cluster:
  hosts:
    - name: big
      mem_mb: 2048
    - name: small
      mem_mb: 512
  guests: 4
  guest_mb: 128
  remediation: migrate
schemes: [vswapper]
table:
  title: t
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cs := sc.Cluster
	if len(cs.HostList) != 2 || cs.HostList[0].Name != "big" || cs.HostList[0].MemMB != 2048 ||
		cs.HostList[1].Name != "small" || cs.HostList[1].MemMB != 512 {
		t.Fatalf("host list %+v", cs.HostList)
	}
	if len(cs.Remediations) != 1 || cs.Remediations[0] != cluster.RemedyMigrate {
		t.Fatalf("scalar remediation %+v", cs.Remediations)
	}
}

func TestParseSchemePaperAndTimeline(t *testing.T) {
	doc := `scenario: tl
title: "timeline demo"
mode: single
fleet:
  memory_mb: 512
  actual_mb: 100
schemes:
  - name: baseline
    paper: "38.7"
  - vswapper
workload:
  kind: seqread
  file_mb: 200
table:
  title: "runtime [sec]"
timeline:
  - at_sec: 0.5
    event: balloon_set
    target_mb: 384
  - at_sec: 1
    event: inject_faults
    faults: "disk-lat:0.1:2ms"
  - at_sec: 1.5
    event: workload_phase
    workload:
      kind: alloctouch
      size_mb: 64
  - at_sec: 2
    event: migrate
    bandwidth_mbps: 1000
    use_mappings: true
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Schemes[0].Paper != "38.7" || sc.Schemes[1].Paper != "" {
		t.Fatalf("schemes %+v", sc.Schemes)
	}
	if len(sc.Timeline) != 4 {
		t.Fatalf("timeline %+v", sc.Timeline)
	}
	ev := sc.Timeline[1]
	if ev.Kind != EvInjectFaults || ev.Faults.Empty() || ev.FaultSpec != "disk-lat:0.1:2ms" {
		t.Fatalf("inject event %+v", ev)
	}
	if sc.Timeline[2].Workload == nil || sc.Timeline[2].Workload.Kind != KindAllocTouch {
		t.Fatalf("phase event %+v", sc.Timeline[2])
	}
	if !sc.Timeline[3].UseMappings || sc.Timeline[3].BandwidthMBps != 1000 {
		t.Fatalf("migrate event %+v", sc.Timeline[3])
	}
}

// TestValidateMalformed is the satellite table: each malformed document
// must fail with a ParseError naming the offending key/value and carrying
// the right line number.
func TestValidateMalformed(t *testing.T) {
	cases := []struct {
		name     string
		doc      string
		wantLine int
		wantMsg  string // substring that must name the offending key/value
	}{
		{
			"unknown top-level field",
			"scenario: x\ntitle: t\nmode: single\nbogus_field: 3\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `unknown field "bogus_field"`,
		},
		{
			"unknown fleet field",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\n  ram_mb: 7\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			7, `unknown field "ram_mb"`,
		},
		{
			"negative memory",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: -512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			5, `field "memory_mb" in fleet out of range: -512`,
		},
		{
			"non-integer memory",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: lots\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			5, `field "memory_mb" in fleet must be an integer, got "lots"`,
		},
		{
			"missing required actual_mb",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			5, `missing required field "actual_mb" in fleet`,
		},
		{
			"bad mode",
			"scenario: x\ntitle: t\nmode: turbo\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			3, `"mode" in scenario must be "single", "dynamic" or "cluster", got "turbo"`,
		},
		{
			"unknown scheme",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline, warpdrive]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			7, `unknown scheme "warpdrive"`,
		},
		{
			"duplicate scheme",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline, baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			7, `duplicate scheme "baseline"`,
		},
		{
			"unknown workload kind",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: cryptomine\n  file_mb: 200\ntable:\n  title: t\n",
			9, `unknown workload kind "cryptomine" in workload (valid: seqread, alloctouch, metis, pbzip2, kernbench, eclipse)`,
		},
		{
			"quick_actual_mb beside a scalar actual_mb",
			sweepDoc("  actual_mb: 100\n  quick_actual_mb: [100]\n", "  kind: pbzip2\n  input_mb: 64\n", ""),
			7, `unknown field "quick_actual_mb" in fleet`,
		},
		{
			"duplicate sweep allocation",
			sweepDoc("  actual_mb: [512, 256, 512]\n", "  kind: pbzip2\n  input_mb: 64\n", ""),
			6, `duplicate element 512 of "actual_mb" in fleet`,
		},
		{
			"sweep with a backend list",
			strings.Replace(sweepDoc("  actual_mb: [512, 256]\n", "  kind: pbzip2\n  input_mb: 64\n", ""),
				"mode: single\n", "mode: single\nbackend: [hdd, ssd]\n", 1),
			4, "a sweep (actual_mb as a sequence) runs one backend",
		},
		{
			"sweep with assertions",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: pbzip2\n  input_mb: 64\n",
				"assertions:\n  - counter: disk.ops\n    scheme: baseline\n    op: \"==\"\n    value: 0\n"),
			13, "assertions are not supported in a sweep",
		},
		{
			"sweep with a timeline",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: pbzip2\n  input_mb: 64\n",
				"timeline:\n  - at_sec: 1\n    event: balloon_set\n    target_mb: 0\n"),
			13, "timeline events are not supported in a sweep",
		},
		{
			"sweep with paper values",
			strings.Replace(sweepDoc("  actual_mb: [512, 256]\n", "  kind: pbzip2\n  input_mb: 64\n", ""),
				"schemes: [baseline]\n", "schemes:\n  - name: baseline\n    paper: \"1.0\"\n", 1),
			7, "paper reference values are not supported in a sweep",
		},
		{
			"pbzip2 without input_mb",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: pbzip2\n", ""),
			9, `missing required field "input_mb" in workload`,
		},
		{
			"kernbench without files",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: kernbench\n  quick_files: 10\n", ""),
			9, `missing required field "files" in workload`,
		},
		{
			"kernbench quick_files out of range",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: kernbench\n  files: 100\n  quick_files: 0\n", ""),
			11, `field "quick_files" in workload out of range: 0 not in [1, 1048576]`,
		},
		{
			"eclipse without heap_mb",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: eclipse\n  jvm_anon_mb: 230\n  workspace_mb: 120\n", ""),
			9, `missing required field "heap_mb" in workload`,
		},
		{
			"eclipse without jvm_anon_mb",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: eclipse\n  heap_mb: 128\n  workspace_mb: 120\n", ""),
			9, `missing required field "jvm_anon_mb" in workload`,
		},
		{
			"eclipse without workspace_mb",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: eclipse\n  heap_mb: 128\n  jvm_anon_mb: 230\n", ""),
			9, `missing required field "workspace_mb" in workload`,
		},
		{
			"eclipse iterations out of range",
			sweepDoc("  actual_mb: [512, 256]\n", "  kind: eclipse\n  heap_mb: 128\n  jvm_anon_mb: 230\n  workspace_mb: 120\n  iterations: 0\n", ""),
			13, `field "iterations" in workload out of range: 0 not in [1, 1048576]`,
		},
		{
			"fixed file's panels still need seqread",
			strings.Replace(sweepDoc("  actual_mb: 256\n", "  kind: pbzip2\n  input_mb: 64\n", ""),
				"table:\n  title: t\n", "panels:\n  - title: p\n    source: runtime\n", 1),
			11, "panels require the seqread workload",
		},
		{
			"out-of-order timeline",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\ntimeline:\n  - at_sec: 2\n    event: balloon_set\n    target_mb: 100\n  - at_sec: 1\n    event: balloon_set\n    target_mb: 0\n",
			17, "timeline out of order: at_sec 1 after 2",
		},
		{
			"bad fault spec",
			"scenario: x\ntitle: t\nmode: single\nfaults: \"warp-core-breach:0.5\"\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `field "faults" in scenario: invalid fault spec`,
		},
		{
			"unknown timeline event",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\ntimeline:\n  - at_sec: 1\n    event: explode\n",
			15, `unknown timeline event "explode"`,
		},
		{
			"unknown assertion op",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    op: \"~=\"\n    value: 0\n",
			16, `unknown assertion op "~="`,
		},
		{
			"assertion references undeclared scheme",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: vswapper\n    op: \"==\"\n    value: 0\n",
			14, `assertion references scheme "vswapper" not declared in schemes`,
		},
		{
			"assertion mixes forms",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline, vswapper]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    op: \"==\"\n    value: 0\n    left: baseline\n    right: vswapper\n",
			14, "assertion mixes threshold (scheme/value) and comparison (left/right) forms",
		},
		{
			"duplicate key",
			"scenario: x\ntitle: t\nmode: single\nmode: dynamic\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `duplicate key "mode"`,
		},
		{
			"tab indentation",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n\tmemory_mb: 512\n",
			5, "tab character in indentation",
		},
		{
			"flow mapping unsupported",
			"scenario: x\ntitle: t\nmode: single\nfleet: {memory_mb: 512, actual_mb: 100}\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, "flow mapping",
		},
		{
			"second inject_faults event",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\ntimeline:\n  - at_sec: 1\n    event: inject_faults\n    faults: \"disk-lat:0.1:2ms\"\n  - at_sec: 2\n    event: inject_faults\n    faults: \"swapin-fail:0.1\"\n",
			18, "at most one inject_faults event per timeline",
		},
		{
			"scenario faults conflict with inject_faults",
			"scenario: x\ntitle: t\nmode: single\nfaults: \"disk-lat:0.1:2ms\"\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\ntimeline:\n  - at_sec: 1\n    event: inject_faults\n    faults: \"swapin-fail:0.1\"\n",
			4, "mutually exclusive",
		},
		{
			"dynamic fleet disk not above memory",
			"scenario: x\ntitle: t\nmode: dynamic\nfleet:\n  counts: [1]\n  memory_mb: 512\n  host_mb: 2048\n  disk_mb: 512\nschemes: [baseline]\nworkload:\n  kind: metis\n  input_mb: 300\n  table_mb: 1024\ntable:\n  title: t\n",
			8, "disk_mb (512) must exceed memory_mb (512): the guest swap area lives on the disk image",
		},
		{
			"dynamic mode rejects timeline",
			"scenario: x\ntitle: t\nmode: dynamic\nfleet:\n  counts: [1, 2]\n  memory_mb: 2048\n  host_mb: 8192\nschemes: [baseline]\nworkload:\n  kind: metis\n  input_mb: 300\n  table_mb: 1024\ntable:\n  title: t\ntimeline:\n  - at_sec: 1\n    event: balloon_set\n    target_mb: 0\n",
			15, "timeline events are only supported in single mode",
		},
		{
			"dynamic mode rejects raw counter assertion",
			"scenario: x\ntitle: t\nmode: dynamic\nfleet:\n  counts: [1, 2]\n  memory_mb: 2048\n  host_mb: 8192\nschemes: [baseline]\nworkload:\n  kind: metis\n  input_mb: 300\n  table_mb: 1024\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    op: \"==\"\n    value: 0\n",
			16, "dynamic-mode assertions support only workload.mean_runtime_sec and workload.killed",
		},
		{
			"unknown backend",
			"scenario: x\ntitle: t\nmode: single\nbackend: floppy\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `unknown backend "floppy"`,
		},
		{
			"duplicate backend",
			"scenario: x\ntitle: t\nmode: single\nbackend: [ssd, ssd]\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `duplicate backend "ssd"`,
		},
		{
			"unknown policy",
			"scenario: x\ntitle: t\nmode: single\npolicy: lru\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `unknown policy "lru"`,
		},
		{
			"assertion backend selector without declared backends",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    backend: ssd\n    op: \"==\"\n    value: 0\n",
			16, `unknown field "backend"`,
		},
		{
			"assertion references undeclared backend",
			"scenario: x\ntitle: t\nmode: single\nbackend: [hdd, ssd]\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    backend: remote\n    op: \"==\"\n    value: 0\n",
			17, `assertion references backend "remote" not declared in backend`,
		},
		{
			"dynamic mode rejects multiple backends",
			"scenario: x\ntitle: t\nmode: dynamic\nbackend: [hdd, ssd]\nfleet:\n  counts: [1, 2]\n  memory_mb: 2048\n  host_mb: 8192\nschemes: [baseline]\nworkload:\n  kind: metis\n  input_mb: 300\n  table_mb: 1024\ntable:\n  title: t\n",
			4, "dynamic mode supports at most one backend",
		},
		{
			"multiple backends reject timeline",
			"scenario: x\ntitle: t\nmode: single\nbackend: [hdd, ssd]\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\ntimeline:\n  - at_sec: 1\n    event: balloon_set\n    target_mb: 0\n",
			4, "multiple backends and timeline events are mutually exclusive",
		},
		{
			"panels without iterations",
			"scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\npanels:\n  - title: p\n    source: runtime\n",
			11, "panels require workload.iterations >= 1",
		},
		{
			"unknown remediation",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: [migrate, teleport]\nschemes: [vswapper]\ntable:\n  title: t\n",
			9, `unknown remediation "teleport"`,
		},
		{
			"duplicate remediation",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: [migrate, migrate]\nschemes: [vswapper]\ntable:\n  title: t\n",
			9, `duplicate remediation "migrate"`,
		},
		{
			"zero hosts",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 0\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\n",
			5, `field "hosts" in cluster out of range: 0 not in [1, 256]`,
		},
		{
			"pressure threshold out of range",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\n  threshold: 1.5\nschemes: [vswapper]\ntable:\n  title: t\n",
			10, `pressure threshold 1.5 not in (0, 1]`,
		},
		{
			"duplicate host name",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts:\n    - name: a\n      mem_mb: 512\n    - name: a\n      mem_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\n",
			8, `duplicate host name "a" in cluster hosts`,
		},
		{
			"host_mb conflicts with explicit host list",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts:\n    - name: a\n      mem_mb: 512\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\n",
			8, "host_mb conflicts with an explicit cluster host list",
		},
		{
			"disk smaller than guest memory",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  disk_mb: 64\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\n",
			9, `disk_mb (64) must exceed guest_mb (128)`,
		},
		{
			"cluster stanza outside cluster mode",
			"scenario: x\ntitle: t\nmode: single\ncluster:\n  hosts: 2\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, `cluster stanza requires mode "cluster", got mode "single"`,
		},
		{
			"cluster mode missing stanza",
			"scenario: x\ntitle: t\nmode: cluster\nschemes: [vswapper]\ntable:\n  title: t\n",
			1, `missing required field "cluster" in scenario`,
		},
		{
			"cluster mode rejects workload",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nworkload:\n  kind: seqread\n  file_mb: 200\nschemes: [vswapper]\ntable:\n  title: t\n",
			10, "workload is not supported in cluster mode",
		},
		{
			"cluster mode rejects non-cluster metric",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: migrate\n    op: \">\"\n    value: 0\n",
			14, "cluster-mode assertions support only",
		},
		{
			"assertion references undeclared remediation",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [vswapper]\ntable:\n  title: t\nassertions:\n  - counter: guest_p95_ms\n    scheme: kill\n    op: \">\"\n    value: 0\n",
			14, `assertion references remediation "kill" not declared in the cluster remediation list`,
		},
		{
			"cluster mode requires exactly one scheme",
			"scenario: x\ntitle: t\nmode: cluster\ncluster:\n  hosts: 2\n  host_mb: 512\n  guests: 4\n  guest_mb: 128\n  remediation: migrate\nschemes: [baseline, vswapper]\ntable:\n  title: t\n",
			10, "cluster mode compares remediation policies under exactly one scheme",
		},
	}
	// check parses doc and wants a ParseError naming msg at line (and at
	// col, unless col is 0).
	check := func(t *testing.T, doc string, line, col int, msg string) {
		t.Helper()
		_, err := Parse([]byte(doc))
		if err == nil {
			t.Fatalf("Parse succeeded, want error containing %q", msg)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("error is %T, want *ParseError: %v", err, err)
		}
		if pe.Line != line || (col != 0 && pe.Col != col) {
			t.Errorf("error at %d:%d, want line %d col %d: %v", pe.Line, pe.Col, line, col, err)
		}
		if !strings.Contains(pe.Msg, msg) {
			t.Errorf("error %q does not name the offense %q", pe.Msg, msg)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { check(t, c.doc, c.wantLine, 0, c.wantMsg) })
	}
	// A present but empty name is an unknown name, not an absent one.
	t.Run("empty policy", func(t *testing.T) {
		check(t, "scenario: x\ntitle: t\nmode: single\npolicy: \"\"\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n",
			4, 1, `unknown policy "" (valid: flat, hotfirst, writeback)`)
	})
	t.Run("empty assertion backend", func(t *testing.T) {
		check(t, "scenario: x\ntitle: t\nmode: single\nbackend: [hdd, ssd]\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: baseline\n    backend: \"\"\n    op: \"==\"\n    value: 0\n",
			17, 5, `assertion references backend "" not declared in backend`)
	})
	t.Run("empty assertion scheme", func(t *testing.T) {
		check(t, "scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\nschemes: [baseline, vswapper]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\nassertions:\n  - counter: disk.ops\n    scheme: \"\"\n    op: \"<\"\n    left: baseline\n    right: vswapper\n",
			14, 5, `assertion references scheme "" not declared in schemes`)
	})
}

func TestLoadFillsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(path, []byte("scenario: x\nbogus: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil {
		t.Fatal("Load succeeded on malformed scenario")
	}
	var pe *ParseError
	if !errors.As(err, &pe) || pe.File != path {
		t.Fatalf("error %v does not carry the file path", err)
	}
	if !strings.Contains(err.Error(), path+":") {
		t.Fatalf("error %q does not render file:line:col position", err)
	}
}

func TestUnknownFieldListsValidFields(t *testing.T) {
	_, err := Parse([]byte("scenario: x\ntitle: t\nmode: single\nfleet:\n  memory_mb: 512\n  actual_mb: 100\n  ram_mb: 1\nschemes: [baseline]\nworkload:\n  kind: seqread\n  file_mb: 200\ntable:\n  title: t\n"))
	if err == nil {
		t.Fatal("want error")
	}
	for _, f := range []string{"memory_mb", "actual_mb", "host_mb", "vcpus", "warmup", "balloon_margin_mb"} {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("unknown-field error does not list valid field %q: %v", f, err)
		}
	}
}

func TestAssertionCompare(t *testing.T) {
	cases := []struct {
		op          string
		left, right float64
		want        bool
	}{
		{"==", 1, 1, true}, {"==", 1, 2, false},
		{"!=", 1, 2, true}, {"!=", 1, 1, false},
		{"<", 1, 2, true}, {"<", 2, 2, false},
		{"<=", 2, 2, true}, {"<=", 3, 2, false},
		{">", 2, 1, true}, {">", 2, 2, false},
		{">=", 2, 2, true}, {">=", 1, 2, false},
	}
	for _, c := range cases {
		a := Assertion{Op: c.op}
		if got := a.Compare(c.left, c.right); got != c.want {
			t.Errorf("Compare(%g %s %g) = %v, want %v", c.left, c.op, c.right, got, c.want)
		}
	}
}
