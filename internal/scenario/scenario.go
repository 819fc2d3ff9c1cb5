package scenario

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vswapsim/internal/cluster"
	"vswapsim/internal/fault"
	"vswapsim/internal/swapback"
)

// This file decodes the parsed node tree into the typed Scenario and
// validates it. Every error is a *ParseError carrying the offending
// key's line/column, and unknown fields are rejected with the list of
// valid fields for that context.

// Modes.
const (
	ModeSingle  = "single"  // one controlled-memory guest per scheme (§5.1 shape)
	ModeDynamic = "dynamic" // a phased fleet per (guest count, scheme) cell (§5.2 shape)
	ModeCluster = "cluster" // a multi-host scheduler cell per remediation policy
)

// Scheme is one of the five configurations evaluated in the paper (§5).
type Scheme int

const (
	// Baseline relies solely on uncooperative host swapping.
	Baseline Scheme = iota
	// BalloonBase employs ballooning, falling back on baseline swapping.
	BalloonBase
	// MapperOnly is VSwapper without the False Reads Preventer.
	MapperOnly
	// VSwapper is the Swap Mapper plus the Preventer.
	VSwapper
	// BalloonVSwapper combines ballooning with VSwapper.
	BalloonVSwapper
)

var schemeNames = [...]string{"baseline", "balloon+base", "mapper", "vswapper", "balloon+vswap"}

func (s Scheme) String() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// parseScheme maps a scheme name to its Scheme.
func parseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if n == name {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(schemeNames[:], ", "))
}

// Mapper, Preventer and Balloon report which components a scheme enables.
func (s Scheme) Mapper() bool    { return s == MapperOnly || s == VSwapper || s == BalloonVSwapper }
func (s Scheme) Preventer() bool { return s == VSwapper || s == BalloonVSwapper }
func (s Scheme) Balloon() bool   { return s == BalloonBase || s == BalloonVSwapper }

// Workload kinds.
const (
	KindSeqRead    = "seqread"
	KindAllocTouch = "alloctouch"
	KindMetis      = "metis"
)

// Timeline event kinds.
const (
	EvBalloonSet    = "balloon_set"
	EvWorkloadPhase = "workload_phase"
	EvInjectFaults  = "inject_faults"
	EvMigrate       = "migrate"
)

// Pseudo-metrics usable in assertions alongside raw counter names.
const (
	MetricRuntimeSec     = "workload.runtime_sec"      // single mode
	MetricKilled         = "workload.killed"           // both modes (0/1 or kill count)
	MetricMeanRuntimeSec = "workload.mean_runtime_sec" // dynamic mode

	// Cluster-mode latency quantiles (milliseconds). Cluster assertions
	// accept these plus any cluster.* fleet counter.
	MetricUnitP95  = "unit_p95_ms"
	MetricUnitP99  = "unit_p99_ms"
	MetricGuestP95 = "guest_p95_ms"
	MetricGuestP99 = "guest_p99_ms"
)

// Ops are the assertion comparison operators.
var Ops = []string{"==", "!=", "<", "<=", ">", ">="}

// Scenario is one validated scenario file.
type Scenario struct {
	// Name is the scenario id; it seeds derived streams and becomes the
	// report ID, so a scenario named like a registry figure (e.g. "fig3")
	// reproduces that figure's report identity.
	Name      string
	Title     string
	PaperNote string
	Mode      string

	// FaultSpec/Faults is the always-armed baseline fault plan. The CLI's
	// -faults flag, when non-empty, replaces the scenario's entire fault
	// configuration (including inject_faults timeline events).
	FaultSpec string
	Faults    fault.Plan
	// AuditEvery enables the invariant auditor every N simulated events;
	// the CLI's -auditevery, when non-zero, takes precedence.
	AuditEvery int

	// Backends lists the swap-backend tiers the scenario runs against (the
	// top-level `backend:` field, scalar or sequence). Empty means "use the
	// CLI's -swapback" (the default hdd tier when the flag is absent). More
	// than one backend fans the single-mode grid out per tier; declaring
	// backends conflicts with a non-default CLI -swapback.
	Backends []swapback.Kind
	// Policy is the declared tiering policy (`policy:`); nil means the
	// CLI's -swappolicy (default writeback), and declaring one conflicts
	// with a non-default -swappolicy.
	Policy *swapback.Policy

	Fleet      Fleet
	Cluster    ClusterSpec
	Schemes    []SchemeRef
	Workload   Workload
	TableTitle string
	Panels     []Panel
	Timeline   []Event
	Assertions []Assertion
}

// ClusterSpec sizes a cluster-mode run: N overcommitted hosts, a guest
// fleet, a packing policy and the remediation policies under comparison.
// All sizes are paper-sized megabytes, scaled by the CLI's -scale like
// every other mode. Zero-valued tuning knobs take the cluster package's
// defaults.
type ClusterSpec struct {
	// Hosts/HostMB is the homogeneous form (`hosts: 4` + `host_mb: 1024`);
	// HostList is the explicit heterogeneous form (`hosts:` as a sequence
	// of {name, mem_mb} mappings). Exactly one form is set.
	Hosts    int
	HostMB   int
	HostList []ClusterHost

	Guests  int
	GuestMB int
	// WSMinPct/WSMaxPct bound the seeded per-guest working set as a
	// percent of GuestMB (`working_set_pct: [60, 95]`).
	WSMinPct, WSMaxPct int

	Units         int
	PhaseUnits    int
	UnitComputeMS int
	StaggerMS     int
	DiskMB        int

	Packing      cluster.Packing
	Remediations []cluster.Remediation // the comparison axis (assertion "schemes")

	Threshold       float64
	SampleSec       int
	CooldownSec     int
	MaxCommitFactor float64
}

// ClusterHost is one explicitly-sized host.
type ClusterHost struct {
	Name  string
	MemMB int
}

// SchemeRef is one compared configuration, optionally with the paper's
// reference value (rendered as a "paper" column).
type SchemeRef struct {
	Scheme Scheme
	Paper  string
}

// Fleet sizes the guests. All sizes are paper-sized megabytes; the CLI's
// -scale flag scales them exactly like the hand-coded figures.
type Fleet struct {
	// single mode
	MemoryMB        int  // believed guest memory (required)
	ActualMB        int  // cgroup allocation (required)
	HostMB          int  // physical host memory (0 = 4x memory_mb)
	VCPUs           int  // default 1 (single) / 2 (dynamic)
	Warmup          bool // touch all free guest memory before measuring
	BalloonMarginMB int  // static balloon headroom (0 = 16)

	// dynamic mode
	Counts      []int // guests-per-cell grid (required)
	QuickCounts []int // replaces Counts under -quick
	StaggerSec  int   // seconds between guest starts (0 = 10)
	DiskMB      int   // per-guest disk image (0 = 20480)
}

// Workload parameterizes the per-guest workload.
type Workload struct {
	Kind string

	// seqread
	FileMB          int
	Iterations      int
	QuickIterations int // replaces Iterations under -quick

	// alloctouch
	SizeMB int

	// metis
	InputMB int
	TableMB int
}

// Panel is one per-iteration output table (the Fig. 9 shape): either the
// workload's per-iteration runtimes (the runtime panel, no Counter) or a
// counter delta per iteration.
type Panel struct {
	Title   string
	Counter string  // counter name of a counter panel; "" for the runtime panel
	Per     float64 // divisor applied before formatting (default 1)
}

// Event is one timed action, applied at AtSec virtual seconds after the
// measured body starts. Events apply only while the primary workload is
// still running.
type Event struct {
	AtSec float64
	Kind  string

	TargetMB int       // balloon_set: balloon target in MB
	Workload *Workload // workload_phase: background job launched at AtSec

	FaultSpec string     // inject_faults: plan armed at AtSec
	Faults    fault.Plan // parsed form

	BandwidthMBps float64 // migrate: link speed (0 = 1000)
	UseMappings   bool    // migrate: VSwapper mapping-assisted transfer
}

// Assertion checks a metric after the scenario ran. Exactly one of the
// two forms is set: threshold (Scheme + Value) or cross-scheme
// comparison (Left + Right).
type Assertion struct {
	Counter string
	Op      string

	Scheme string
	Value  float64

	Left  string
	Right string

	// Backend selects which declared backend's grid the assertion reads
	// (multi-backend single mode; nil = the first declared backend). Only
	// valid when the scenario declares a backend list.
	Backend *swapback.Kind

	// Guests selects the dynamic-mode cell (0 = the largest count).
	Guests int
}

// Threshold reports whether this is the scheme-vs-literal form.
func (a Assertion) Threshold() bool { return a.Scheme != "" }

// String renders the assertion for failure messages.
func (a Assertion) String() string {
	c := a.Counter
	if a.Backend != nil {
		c += "@" + a.Backend.String()
	}
	if a.Threshold() {
		return fmt.Sprintf("%s[%s] %s %g", c, a.Scheme, a.Op, a.Value)
	}
	return fmt.Sprintf("%s[%s] %s %s[%s]", c, a.Left, a.Op, c, a.Right)
}

// Compare applies the assertion's operator.
func (a Assertion) Compare(left, right float64) bool {
	switch a.Op {
	case "==":
		return left == right
	case "!=":
		return left != right
	case "<":
		return left < right
	case "<=":
		return left <= right
	case ">":
		return left > right
	case ">=":
		return left >= right
	}
	return false
}

// Load reads and parses a scenario file; errors carry the path.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		if pe, ok := err.(*ParseError); ok {
			pe.File = path
		}
		return nil, err
	}
	return sc, nil
}

// Parse parses and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	return sc, nil
}

// decoder accumulates the first error; helpers become no-ops afterwards,
// keeping the decode functions linear.
type decoder struct {
	err error
}

func (d *decoder) fail(at pos, format string, args ...any) {
	if d.err == nil {
		d.err = errAt(at, format, args...)
	}
}

// obj wraps a mapping node for field-by-field consumption.
type obj struct {
	d     *decoder
	n     *node
	ctx   string
	known map[string]bool
}

func (d *decoder) obj(n *node, ctx string) *obj {
	if d.err != nil {
		return &obj{d: d, ctx: ctx, known: map[string]bool{}}
	}
	if n.kind != mapNode {
		d.fail(n.pos, "%s must be a mapping, got %s", ctx, n.kind)
		return &obj{d: d, ctx: ctx, known: map[string]bool{}}
	}
	return &obj{d: d, n: n, ctx: ctx, known: map[string]bool{}}
}

// get marks key as known and returns its node (nil if absent).
func (o *obj) get(key string) *node {
	o.known[key] = true
	if o.n == nil {
		return nil
	}
	return o.n.vals[key]
}

func (o *obj) keyPos(key string) pos {
	if o.n != nil {
		if p, ok := o.n.kpos[key]; ok {
			return p
		}
		return o.n.pos
	}
	return pos{1, 1}
}

func (o *obj) require(key string) *node {
	n := o.get(key)
	if n == nil && o.d.err == nil && o.n != nil {
		o.d.fail(o.n.pos, "missing required field %q in %s", key, o.ctx)
	}
	return n
}

// finish rejects any field that was never requested.
func (o *obj) finish() {
	if o.n == nil || o.d.err != nil {
		return
	}
	for _, k := range o.n.keys {
		if !o.known[k] {
			valid := make([]string, 0, len(o.known))
			for f := range o.known {
				valid = append(valid, f)
			}
			sort.Strings(valid)
			o.d.fail(o.n.kpos[k], "unknown field %q in %s (valid fields: %s)",
				k, o.ctx, strings.Join(valid, ", "))
			return
		}
	}
}

func (o *obj) scalar(n *node, key string) (string, pos, bool) {
	if n == nil || o.d.err != nil {
		return "", pos{}, false
	}
	if n.kind != scalarNode {
		o.d.fail(n.pos, "field %q in %s must be a scalar, got %s", key, o.ctx, n.kind)
		return "", pos{}, false
	}
	return n.scalar, n.pos, true
}

// str reads an optional string field ("" when absent).
func (o *obj) str(key string) string {
	v, _, ok := o.scalar(o.get(key), key)
	if !ok {
		return ""
	}
	return v
}

// reqStr reads a required, non-empty string field.
func (o *obj) reqStr(key string) string {
	n := o.require(key)
	v, p, ok := o.scalar(n, key)
	if ok && v == "" {
		o.d.fail(p, "field %q in %s must not be empty", key, o.ctx)
	}
	return v
}

// intField reads an integer with range checking; returns def when absent.
func (o *obj) intField(key string, def, min, max int) int {
	n := o.get(key)
	if n == nil {
		return def
	}
	v, p, ok := o.scalar(n, key)
	if !ok {
		return def
	}
	i, err := strconv.Atoi(v)
	if err != nil || n.quoted {
		o.d.fail(p, "field %q in %s must be an integer, got %q", key, o.ctx, v)
		return def
	}
	if i < min || i > max {
		o.d.fail(p, "field %q in %s out of range: %d not in [%d, %d]", key, o.ctx, i, min, max)
		return def
	}
	return i
}

// reqInt reads a required integer with range checking.
func (o *obj) reqInt(key string, min, max int) int {
	o.require(key)
	return o.intField(key, min, min, max)
}

// floatField reads a float with range checking; returns def when absent.
func (o *obj) floatField(key string, def, min, max float64) (float64, bool) {
	n := o.get(key)
	if n == nil {
		return def, false
	}
	v, p, ok := o.scalar(n, key)
	if !ok {
		return def, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || n.quoted || f != f { // reject NaN
		o.d.fail(p, "field %q in %s must be a number, got %q", key, o.ctx, v)
		return def, false
	}
	if f < min || f > max {
		o.d.fail(p, "field %q in %s out of range: %g not in [%g, %g]", key, o.ctx, f, min, max)
		return def, false
	}
	return f, true
}

// boolField reads an optional boolean (default false).
func (o *obj) boolField(key string) bool {
	n := o.get(key)
	if n == nil {
		return false
	}
	v, p, ok := o.scalar(n, key)
	if !ok {
		return false
	}
	switch v {
	case "true":
		return true
	case "false":
		return false
	}
	o.d.fail(p, "field %q in %s must be true or false, got %q", key, o.ctx, v)
	return false
}

// intSeq reads a sequence of positive integers.
func (o *obj) intSeq(key string, required bool, max int) []int {
	var n *node
	if required {
		n = o.require(key)
	} else {
		n = o.get(key)
	}
	if n == nil || o.d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		o.d.fail(n.pos, "field %q in %s must be a sequence, got %s", key, o.ctx, n.kind)
		return nil
	}
	if len(n.items) == 0 {
		o.d.fail(n.pos, "field %q in %s must not be empty", key, o.ctx)
		return nil
	}
	out := make([]int, 0, len(n.items))
	for _, it := range n.items {
		if it.kind != scalarNode {
			o.d.fail(it.pos, "elements of %q in %s must be integers", key, o.ctx)
			return nil
		}
		i, err := strconv.Atoi(it.scalar)
		if err != nil || it.quoted {
			o.d.fail(it.pos, "elements of %q in %s must be integers, got %q", key, o.ctx, it.scalar)
			return nil
		}
		if i < 1 || i > max {
			o.d.fail(it.pos, "element of %q in %s out of range: %d not in [1, %d]", key, o.ctx, i, max)
			return nil
		}
		out = append(out, i)
	}
	return out
}

// faultPlan parses a fault spec string field into a Plan.
func (o *obj) faultPlan(key string) (string, fault.Plan) {
	n := o.get(key)
	if n == nil {
		return "", fault.Plan{}
	}
	v, p, ok := o.scalar(n, key)
	if !ok {
		return "", fault.Plan{}
	}
	plan, err := fault.ParsePlan(v)
	if err != nil {
		o.d.fail(p, "field %q in %s: invalid fault spec: %v", key, o.ctx, err)
		return "", fault.Plan{}
	}
	if plan.Empty() {
		o.d.fail(p, "field %q in %s must not be an empty fault plan", key, o.ctx)
		return "", fault.Plan{}
	}
	return plan.String(), plan
}

// ---- schema ----

func (d *decoder) scenario(root *node) *Scenario {
	o := d.obj(root, "scenario")
	sc := &Scenario{}
	sc.Name = o.reqStr("scenario")
	if d.err == nil {
		if err := checkName(sc.Name, o.keyPos("scenario")); err != nil {
			d.err = err
		}
	}
	sc.Title = o.reqStr("title")
	sc.PaperNote = o.str("paper_note")
	sc.Mode = o.reqStr("mode")
	if d.err == nil && sc.Mode != ModeSingle && sc.Mode != ModeDynamic && sc.Mode != ModeCluster {
		d.fail(o.keyPos("mode"), "field %q in scenario must be %q, %q or %q, got %q",
			"mode", ModeSingle, ModeDynamic, ModeCluster, sc.Mode)
	}
	sc.FaultSpec, sc.Faults = o.faultPlan("faults")
	sc.AuditEvery = o.intField("audit_every", 0, 0, 1<<30)
	sc.Backends = nameList(d, o.get("backend"), "backend", "backend", parseBackend)
	if name := o.str("policy"); name != "" {
		p, err := swapback.ParsePolicy(name)
		if err != nil {
			d.fail(o.keyPos("policy"), "unknown policy %q (valid: %s)",
				name, strings.Join(swapback.PolicyNames(), ", "))
		}
		sc.Policy = &p
	}

	if sc.Mode == ModeCluster {
		if o.get("fleet") != nil && d.err == nil {
			d.fail(o.keyPos("fleet"), "fleet is not supported in cluster mode (size hosts and guests in the cluster stanza)")
		}
		if o.get("workload") != nil && d.err == nil {
			d.fail(o.keyPos("workload"), "workload is not supported in cluster mode (the cluster stanza declares its own units)")
		}
		if cn := o.require("cluster"); cn != nil {
			sc.Cluster = d.clusterSpec(cn)
		}
	} else {
		if o.get("cluster") != nil && d.err == nil {
			d.fail(o.keyPos("cluster"), "cluster stanza requires mode %q, got mode %q", ModeCluster, sc.Mode)
		}
		if fn := o.require("fleet"); fn != nil {
			sc.Fleet = d.fleet(fn, sc.Mode)
		}
		if wn := o.require("workload"); wn != nil {
			sc.Workload = d.workload(wn, "workload", sc.Mode)
		}
	}
	sc.Schemes = d.schemes(o.require("schemes"), sc.Mode)
	if tn := o.get("table"); tn != nil {
		to := d.obj(tn, "table")
		sc.TableTitle = to.reqStr("title")
		to.finish()
	}
	if pn := o.get("panels"); pn != nil {
		sc.Panels = d.panels(pn, sc)
	}
	if tl := o.get("timeline"); tl != nil {
		sc.Timeline = d.timeline(tl, sc)
	}
	if an := o.get("assertions"); an != nil {
		sc.Assertions = d.assertions(an, sc)
	}
	o.finish()
	d.crossChecks(root, sc)
	return sc
}

// parseBackend is swapback.ParseKind without its empty-name default,
// worded for scenario files.
func parseBackend(name string) (swapback.Kind, error) {
	if k, err := swapback.ParseKind(name); err == nil && name != "" {
		return k, nil
	}
	return 0, fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(swapback.KindNames(), ", "))
}

// parsed decodes a name at a position with its vocabulary's parser, whose
// error (it lists the valid names) becomes the decode failure.
func parsed[T any](d *decoder, at pos, name string, parse func(string) (T, error)) (T, bool) {
	v, err := parse(name)
	if err != nil {
		d.fail(at, "%v", err)
	}
	return v, err == nil
}

// nameList decodes a field that holds one name or a sequence of distinct
// names of one vocabulary. what names the field in errors, noun one of
// its values.
func nameList[T comparable](d *decoder, n *node, what, noun string, parse func(string) (T, error)) []T {
	if n == nil || d.err != nil {
		return nil
	}
	items := []*node{n}
	switch n.kind {
	case scalarNode:
	case seqNode:
		if len(n.items) == 0 {
			d.fail(n.pos, "%s must not be empty", what)
			return nil
		}
		items = n.items
	default:
		d.fail(n.pos, "%s must be a %s name or a sequence of names, got %s", what, noun, n.kind)
		return nil
	}
	var out []T
	for _, it := range items {
		if it.kind != scalarNode {
			d.fail(it.pos, "elements of %s must be %s names", what, noun)
			return nil
		}
		v, ok := parsed(d, it.pos, it.scalar, parse)
		if !ok {
			return nil
		}
		if slices.Contains(out, v) {
			d.fail(it.pos, "duplicate %s %q", noun, it.scalar)
			return nil
		}
		out = append(out, v)
	}
	return out
}

func checkName(name string, at pos) error {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case i > 0 && (c >= '0' && c <= '9' || c == '-' || c == '_'):
		default:
			return errAt(at, "scenario name %q must match [a-z][a-z0-9_-]*", name)
		}
	}
	return nil
}

func (d *decoder) fleet(n *node, mode string) Fleet {
	o := d.obj(n, "fleet")
	var f Fleet
	const maxMB = 1 << 20 // 1 TiB of paper-sized memory is a spec mistake
	if mode == ModeDynamic {
		f.Counts = o.intSeq("counts", true, 4096)
		f.QuickCounts = o.intSeq("quick_counts", false, 4096)
		f.MemoryMB = o.reqInt("memory_mb", 1, maxMB)
		f.HostMB = o.reqInt("host_mb", 1, maxMB)
		f.VCPUs = o.intField("vcpus", 2, 1, 64)
		f.StaggerSec = o.intField("stagger_sec", 10, 0, 3600)
		f.DiskMB = o.intField("disk_mb", 20*1024, 1, maxMB)
	} else {
		f.MemoryMB = o.reqInt("memory_mb", 1, maxMB)
		f.ActualMB = o.reqInt("actual_mb", 1, maxMB)
		f.HostMB = o.intField("host_mb", 0, 0, maxMB)
		f.VCPUs = o.intField("vcpus", 0, 0, 64)
		f.Warmup = o.boolField("warmup")
		f.BalloonMarginMB = o.intField("balloon_margin_mb", 0, 0, maxMB)
	}
	o.finish()
	return f
}

// clusterSpec decodes the cluster stanza. Tuning knobs left out take the
// cluster package's defaults; structural fields (hosts, guests, sizes,
// remediation) are required.
func (d *decoder) clusterSpec(n *node) ClusterSpec {
	o := d.obj(n, "cluster")
	var cs ClusterSpec
	const maxMB = 1 << 20

	// hosts: a count with a shared host_mb, or an explicit sequence of
	// {name, mem_mb} hosts.
	hn := o.require("hosts")
	switch {
	case hn == nil || d.err != nil:
	case hn.kind == scalarNode:
		i, err := strconv.Atoi(hn.scalar)
		switch {
		case err != nil || hn.quoted:
			d.fail(hn.pos, "field %q in cluster must be a host count or a sequence of {name, mem_mb} hosts, got %q", "hosts", hn.scalar)
		case i < 1 || i > 256:
			d.fail(hn.pos, "field %q in cluster out of range: %d not in [%d, %d]", "hosts", i, 1, 256)
		default:
			cs.Hosts = i
			cs.HostMB = o.reqInt("host_mb", 1, maxMB)
		}
	case hn.kind == seqNode:
		if len(hn.items) == 0 {
			d.fail(hn.pos, "field %q in cluster must not be empty", "hosts")
			break
		}
		if o.get("host_mb") != nil {
			d.fail(o.keyPos("host_mb"), "host_mb conflicts with an explicit cluster host list (size each host's mem_mb)")
			break
		}
		seen := map[string]bool{}
		for _, it := range hn.items {
			ho := d.obj(it, "cluster host")
			var h ClusterHost
			h.Name = ho.reqStr("name")
			h.MemMB = ho.reqInt("mem_mb", 1, maxMB)
			ho.finish()
			if d.err != nil {
				return cs
			}
			if seen[h.Name] {
				d.fail(ho.keyPos("name"), "duplicate host name %q in cluster hosts", h.Name)
				return cs
			}
			seen[h.Name] = true
			cs.HostList = append(cs.HostList, h)
		}
	default:
		d.fail(hn.pos, "field %q in cluster must be a host count or a sequence of {name, mem_mb} hosts, got %s", "hosts", hn.kind)
	}

	cs.Guests = o.reqInt("guests", 1, 4096)
	cs.GuestMB = o.reqInt("guest_mb", 1, maxMB)
	if ws := o.intSeq("working_set_pct", false, 100); ws != nil {
		if len(ws) != 2 || ws[0] > ws[1] {
			d.fail(o.keyPos("working_set_pct"), "working_set_pct must be a [min, max] percent pair with min <= max")
		} else {
			cs.WSMinPct, cs.WSMaxPct = ws[0], ws[1]
		}
	}
	cs.Units = o.intField("units", 0, 1, 1<<20)
	cs.PhaseUnits = o.intField("phase_units", 0, 1, 1<<20)
	cs.UnitComputeMS = o.intField("unit_compute_ms", 0, 1, 3600_000)
	cs.StaggerMS = o.intField("stagger_ms", 0, 1, 3600_000)
	cs.DiskMB = o.intField("disk_mb", 4*cs.GuestMB, 1, maxMB)
	if d.err == nil && cs.DiskMB <= cs.GuestMB {
		d.fail(o.keyPos("disk_mb"), "disk_mb (%d) must exceed guest_mb (%d): the guest swap area lives on the disk image", cs.DiskMB, cs.GuestMB)
	}

	cs.Packing = cluster.BalancedPressure
	if pn := o.get("packing"); pn != nil {
		if name, at, ok := o.scalar(pn, "packing"); ok {
			cs.Packing, _ = parsed(d, at, name, cluster.ParsePacking)
		}
	}
	// remediation: one policy or the comparison sequence.
	cs.Remediations = nameList(d, o.require("remediation"), `field "remediation" in cluster`,
		"remediation", cluster.ParseRemediation)

	if tn := o.get("threshold"); tn != nil {
		if v, at, ok := o.scalar(tn, "threshold"); ok {
			f, err := strconv.ParseFloat(v, 64)
			switch {
			case err != nil || tn.quoted || f != f:
				d.fail(at, "field %q in cluster must be a number, got %q", "threshold", v)
			case f <= 0 || f > 1:
				d.fail(at, "field %q in cluster out of range: pressure threshold %g not in (0, 1]", "threshold", f)
			default:
				cs.Threshold = f
			}
		}
	}
	cs.SampleSec = o.intField("sample_sec", 0, 1, 3600)
	cs.CooldownSec = o.intField("cooldown_sec", 0, 1, 3600)
	cs.MaxCommitFactor, _ = o.floatField("max_commit_factor", 0, 1, 64)
	o.finish()
	return cs
}

func (d *decoder) schemes(n *node, mode string) []SchemeRef {
	if n == nil || d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.pos, "schemes must be a sequence, got %s", n.kind)
		return nil
	}
	if len(n.items) == 0 {
		d.fail(n.pos, "schemes must list at least one scheme")
		return nil
	}
	var out []SchemeRef
	for _, it := range n.items {
		var ref SchemeRef
		var name string
		var at pos
		switch it.kind {
		case scalarNode:
			name, at = it.scalar, it.pos
		case mapNode:
			so := d.obj(it, "scheme")
			name = so.reqStr("name")
			ref.Paper = so.str("paper")
			so.finish()
			at = so.keyPos("name")
		default:
			d.fail(it.pos, "each scheme must be a name or a {name, paper} mapping")
			return nil
		}
		if d.err != nil {
			return nil
		}
		var ok bool
		if ref.Scheme, ok = parsed(d, at, name, parseScheme); !ok {
			return nil
		}
		for _, prev := range out {
			if prev.Scheme == ref.Scheme {
				d.fail(at, "duplicate scheme %q", name)
				return nil
			}
		}
		if mode != ModeSingle && ref.Paper != "" {
			d.fail(at, "scheme %q: paper reference values are only supported in single mode", name)
			return nil
		}
		out = append(out, ref)
	}
	return out
}

func (d *decoder) workload(n *node, ctx, mode string) Workload {
	o := d.obj(n, ctx)
	var w Workload
	w.Kind = o.reqStr("kind")
	const maxMB = 1 << 20
	switch w.Kind {
	case KindSeqRead:
		w.FileMB = o.reqInt("file_mb", 1, maxMB)
		w.Iterations = o.intField("iterations", 0, 1, 1<<20)
		w.QuickIterations = o.intField("quick_iterations", 0, 1, 1<<20)
	case KindAllocTouch:
		w.SizeMB = o.reqInt("size_mb", 1, maxMB)
	case KindMetis:
		w.InputMB = o.reqInt("input_mb", 1, maxMB)
		w.TableMB = o.reqInt("table_mb", 1, maxMB)
	default:
		if d.err == nil {
			d.fail(o.keyPos("kind"), "unknown workload kind %q in %s (valid: %s, %s, %s)",
				w.Kind, ctx, KindSeqRead, KindAllocTouch, KindMetis)
		}
		return w
	}
	if mode == ModeDynamic && w.Kind == KindAllocTouch {
		d.fail(o.keyPos("kind"), "workload kind %q is not supported in dynamic mode", w.Kind)
	}
	o.finish()
	return w
}

func (d *decoder) panels(n *node, sc *Scenario) []Panel {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.pos, "panels must be a sequence, got %s", n.kind)
		return nil
	}
	if len(n.items) == 0 {
		d.fail(n.pos, "panels must not be empty")
		return nil
	}
	var out []Panel
	for _, it := range n.items {
		o := d.obj(it, "panel")
		var p Panel
		p.Title = o.reqStr("title")
		switch source := o.reqStr("source"); source {
		case "runtime":
			o.get("counter") // mark known so the unknown-field hint stays stable
			o.get("per")
			if d.err == nil && it.kind == mapNode {
				if cn, ok := it.vals["counter"]; ok {
					d.fail(cn.pos, "panel source %q does not take a counter", source)
				}
			}
		case "counter":
			p.Counter = o.reqStr("counter")
			if d.err == nil {
				if err := checkCounterName(p.Counter, o.keyPos("counter")); err != nil {
					d.err = err
				}
			}
			p.Per, _ = o.floatField("per", 1, 1e-9, 1e12)
		default:
			if d.err == nil {
				d.fail(o.keyPos("source"), "panel source must be \"runtime\" or \"counter\", got %q", source)
			}
			return nil
		}
		o.finish()
		if d.err != nil {
			return nil
		}
		out = append(out, p)
	}
	return out
}

func (d *decoder) timeline(n *node, sc *Scenario) []Event {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.pos, "timeline must be a sequence, got %s", n.kind)
		return nil
	}
	var out []Event
	injectSeen := false
	last := -1.0
	for _, it := range n.items {
		o := d.obj(it, "timeline event")
		var ev Event
		ev.AtSec, _ = o.floatField("at_sec", 0, 0, 1e9)
		if o.require("at_sec") == nil {
			return nil
		}
		ev.Kind = o.reqStr("event")
		switch ev.Kind {
		case EvBalloonSet:
			ev.TargetMB = o.reqInt("target_mb", 0, 1<<20)
		case EvWorkloadPhase:
			if wn := o.require("workload"); wn != nil {
				w := d.workload(wn, "workload_phase workload", sc.Mode)
				ev.Workload = &w
			}
		case EvInjectFaults:
			o.require("faults")
			ev.FaultSpec, ev.Faults = o.faultPlan("faults")
			if d.err == nil && injectSeen {
				d.fail(o.keyPos("event"), "at most one inject_faults event per timeline")
			}
			injectSeen = true
		case EvMigrate:
			ev.BandwidthMBps, _ = o.floatField("bandwidth_mbps", 0, 0, 1e9)
			ev.UseMappings = o.boolField("use_mappings")
		default:
			if d.err == nil {
				d.fail(o.keyPos("event"), "unknown timeline event %q (valid: %s, %s, %s, %s)",
					ev.Kind, EvBalloonSet, EvWorkloadPhase, EvInjectFaults, EvMigrate)
			}
			return nil
		}
		o.finish()
		if d.err != nil {
			return nil
		}
		if ev.AtSec < last {
			d.fail(o.keyPos("at_sec"), "timeline out of order: at_sec %g after %g", ev.AtSec, last)
			return nil
		}
		last = ev.AtSec
		out = append(out, ev)
	}
	return out
}

func (d *decoder) assertions(n *node, sc *Scenario) []Assertion {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.pos, "assertions must be a sequence, got %s", n.kind)
		return nil
	}
	// The assertion axis is schemes, except in cluster mode where the
	// remediation policies are what the grid compares.
	declared := map[string]bool{}
	axisNoun, axisWhere := "scheme", "schemes"
	if sc.Mode == ModeCluster {
		axisNoun, axisWhere = "remediation", "the cluster remediation list"
		for _, r := range sc.Cluster.Remediations {
			declared[r.String()] = true
		}
	} else {
		for _, s := range sc.Schemes {
			declared[s.Scheme.String()] = true
		}
	}
	maxCount := 0
	for _, c := range sc.Fleet.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var out []Assertion
	for _, it := range n.items {
		o := d.obj(it, "assertion")
		var a Assertion
		a.Counter = o.reqStr("counter")
		a.Op = o.reqStr("op")
		a.Scheme = o.str("scheme")
		a.Value, _ = o.floatField("value", 0, -1e18, 1e18)
		a.Left = o.str("left")
		a.Right = o.str("right")
		var backend string
		if len(sc.Backends) > 0 {
			backend = o.str("backend")
		}
		if sc.Mode == ModeDynamic {
			a.Guests = o.intField("guests", 0, 1, 1<<20)
		}
		o.finish()
		if d.err != nil {
			return nil
		}
		at := o.keyPos("counter")
		if !validOp(a.Op) {
			d.fail(o.keyPos("op"), "unknown assertion op %q (valid: %s)", a.Op, strings.Join(Ops, ", "))
			return nil
		}
		switch {
		case a.Scheme != "" && (a.Left != "" || a.Right != ""):
			d.fail(at, "assertion mixes threshold (scheme/value) and comparison (left/right) forms")
			return nil
		case a.Scheme != "":
			if it.kind == mapNode && it.vals["value"] == nil {
				d.fail(at, "threshold assertion missing required field \"value\"")
				return nil
			}
		case a.Left != "" || a.Right != "":
			if a.Left == "" || a.Right == "" {
				d.fail(at, "comparison assertion needs both \"left\" and \"right\" schemes")
				return nil
			}
			if it.kind == mapNode && it.vals["value"] != nil {
				d.fail(at, "comparison assertion does not take a \"value\"")
				return nil
			}
		default:
			d.fail(at, "assertion needs either scheme+value or left+right")
			return nil
		}
		for _, s := range []string{a.Scheme, a.Left, a.Right} {
			if s != "" && !declared[s] {
				d.fail(at, "assertion references %s %q not declared in %s", axisNoun, s, axisWhere)
				return nil
			}
		}
		if backend != "" {
			for i, k := range sc.Backends {
				if k.String() == backend {
					a.Backend = &sc.Backends[i]
				}
			}
			if a.Backend == nil {
				d.fail(o.keyPos("backend"), "assertion references backend %q not declared in backend", backend)
				return nil
			}
		}
		if err := d.checkMetric(a.Counter, sc.Mode, at); err != nil {
			return nil
		}
		if sc.Mode == ModeDynamic && a.Guests != 0 {
			found := false
			for _, c := range sc.Fleet.Counts {
				if c == a.Guests {
					found = true
				}
			}
			for _, c := range sc.Fleet.QuickCounts {
				if c == a.Guests {
					found = true
				}
			}
			if !found {
				d.fail(o.keyPos("guests"), "assertion guests %d is not in fleet counts", a.Guests)
				return nil
			}
		}
		out = append(out, a)
	}
	return out
}

func validOp(op string) bool {
	for _, o := range Ops {
		if o == op {
			return true
		}
	}
	return false
}

// checkMetric validates an assertion's metric name per mode. In single
// mode any lexically valid counter name is allowed (unknown counters read
// zero); dynamic cells only expose the pseudo-metrics.
func (d *decoder) checkMetric(name, mode string, at pos) error {
	if mode == ModeCluster {
		switch name {
		case MetricUnitP95, MetricUnitP99, MetricGuestP95, MetricGuestP99:
			return nil
		}
		if strings.HasPrefix(name, "cluster.") {
			if err := checkCounterName(name, at); err != nil {
				d.err = err
				return err
			}
			return nil
		}
		d.fail(at, "cluster-mode assertions support only %s/%s/%s/%s and cluster.* counters, got %q",
			MetricUnitP95, MetricUnitP99, MetricGuestP95, MetricGuestP99, name)
		return d.err
	}
	if mode == ModeDynamic {
		if name != MetricMeanRuntimeSec && name != MetricKilled {
			d.fail(at, "dynamic-mode assertions support only %s and %s, got %q",
				MetricMeanRuntimeSec, MetricKilled, name)
			return d.err
		}
		return nil
	}
	if name == MetricRuntimeSec || name == MetricKilled {
		return nil
	}
	if err := checkCounterName(name, at); err != nil {
		d.err = err
		return err
	}
	return nil
}

func checkCounterName(name string, at pos) error {
	if name == "" {
		return errAt(at, "empty counter name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-', c == '+':
		default:
			return errAt(at, "invalid counter name %q", name)
		}
	}
	return nil
}

// crossChecks enforces constraints that span sections.
func (d *decoder) crossChecks(root *node, sc *Scenario) {
	if d.err != nil {
		return
	}
	at := func(key string) pos {
		if p, ok := root.kpos[key]; ok {
			return p
		}
		return root.pos
	}
	if len(sc.Backends) > 1 {
		if sc.Mode != ModeSingle {
			d.fail(at("backend"), "%s mode supports at most one backend", sc.Mode)
			return
		}
		if len(sc.Panels) > 0 {
			d.fail(at("backend"), "multiple backends and panels are mutually exclusive")
			return
		}
		if len(sc.Timeline) > 0 {
			d.fail(at("backend"), "multiple backends and timeline events are mutually exclusive")
			return
		}
	}
	if sc.Mode != ModeSingle {
		if len(sc.Panels) > 0 {
			d.fail(at("panels"), "panels are only supported in single mode")
			return
		}
		if len(sc.Timeline) > 0 {
			d.fail(at("timeline"), "timeline events are only supported in single mode")
			return
		}
		if sc.TableTitle == "" {
			d.fail(at("table"), "%s mode requires a table with a title", sc.Mode)
			return
		}
		if sc.Mode == ModeCluster && len(sc.Schemes) != 1 {
			d.fail(at("schemes"), "cluster mode compares remediation policies under exactly one scheme")
			return
		}
	} else {
		if len(sc.Panels) > 0 && sc.TableTitle != "" {
			d.fail(at("table"), "table and panels are mutually exclusive")
			return
		}
		if len(sc.Panels) == 0 && sc.TableTitle == "" {
			d.fail(at("scenario"), "single mode requires either a table title or panels")
			return
		}
		if len(sc.Panels) > 0 {
			if sc.Workload.Kind != KindSeqRead {
				d.fail(at("panels"), "panels require the seqread workload (per-iteration sampling)")
				return
			}
			if sc.Workload.Iterations < 1 {
				d.fail(at("panels"), "panels require workload.iterations >= 1")
				return
			}
		}
	}
	for _, ev := range sc.Timeline {
		if ev.Kind == EvInjectFaults && !sc.Faults.Empty() {
			d.fail(at("faults"), "scenario-level faults and an inject_faults timeline event are mutually exclusive")
			return
		}
	}
}
