// Package experiment reproduces every table and figure of the paper's
// evaluation (§5): each experiment builds the machine/guest configuration
// the paper describes, runs the matching workload generator under the five
// schemes (baseline, ballooning, mapper-only, vswapper, balloon+vswapper),
// and reports the same rows/series the paper plots.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"vswapsim/internal/fault/audit"
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// canceled reports whether the invocation's context has been canceled.
func (o Options) canceled() bool { return o.Ctx != nil && o.Ctx.Err() != nil }

// cancelRun cancels the remainder of the invocation, if cancellable.
func (o Options) cancelRun() {
	if o.CancelRun != nil {
		o.CancelRun()
	}
}

// cellBudget assembles the per-cell watchdog budget from the options.
func (o Options) cellBudget() sim.Budget {
	b := sim.Budget{MaxEvents: o.MaxEvents, WallTimeout: o.CellTimeout}
	if o.Ctx != nil {
		ctx := o.Ctx
		b.Canceled = func() bool { return ctx.Err() != nil }
	}
	return b
}

// mb scales a paper-specified megabyte figure.
func (o Options) mb(v int) int {
	s := int(float64(v) * o.Scale)
	if s < 8 {
		s = 8
	}
	return s
}

// pages converts scaled MiB to pages.
func (o Options) pages(v int) int { return o.mb(v) << 20 / 4096 }

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values for plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Report is one experiment's output.
type Report struct {
	ID        string
	Title     string
	PaperNote string
	Tables    []*Table
	Notes     []string
	// AssertionFailures counts scenario assertions that did not hold (the
	// details are also in Notes as "ASSERTION FAILED" lines, so they are
	// fingerprinted); the CLI maps a nonzero count to exit code 1. Always
	// zero for hand-coded experiments.
	AssertionFailures int
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperNote != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperNote)
	}
	b.WriteByte('\n')
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Fingerprint returns a stable SHA-256 over the report's identity and
// every table rendered as CSV (where all the metric counters the report
// surfaces end up), plus its notes. The determinism golden tests compare
// fingerprints across runs and against testdata/.
func (r *Report) Fingerprint() string {
	h := sha256.New()
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	field(r.ID)
	field(r.Title)
	for _, t := range r.Tables {
		field(t.Title)
		field(t.CSV())
	}
	for _, n := range r.Notes {
		field(n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID        string
	Title     string
	PaperNote string
	Run       func(Options) *Report
}

// secs formats a virtual duration as seconds.
func secs(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// mins formats a virtual duration as minutes.
func mins(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()/60) }

// runCfg describes one single-guest controlled-memory run (paper §5.1).
type runCfg struct {
	opts   Options
	scheme scenario.Scheme
	// seed, when nonzero, overrides opts.Seed for this run's machine.
	// Fan-out jobs set it to sim.DeriveSeed(opts.Seed, id, scheme, size)
	// so each cell is an independent, scheduling-order-free stream.
	seed     uint64
	guestMB  int // believed memory (pre-scale)
	actualMB int // cgroup allocation (pre-scale)
	hostMB   int // physical host memory (0 = 8x actual, min 2 GiB equiv)
	vcpus    int
	warmup   bool
	// balloonMarginMB is added to the static balloon so kernel + QEMU
	// overhead fits under the cgroup limit (pre-scale).
	balloonMarginMB int
	vmTweak         func(*hyper.VMConfig)
	hostTweak       func(*hyper.MachineConfig)
}

// runSingle executes one controlled-memory scenario: boot, optional static
// balloon, optional warm-up, then the measured body — all under the
// run-hardening shield, so a watchdog kill or a panic in this cell
// degrades to a failed cell and a FailureRecord instead of aborting the
// sweep.
func runSingle(rc runCfg, body func(vm *hyper.VM, p *sim.Proc) *workload.Job) cell {
	o := rc.opts.normalized()
	release := o.acquire()
	defer release()
	if rc.seed == 0 {
		rc.seed = o.Seed
	}
	if rc.vcpus == 0 {
		rc.vcpus = 1
	}
	if rc.balloonMarginMB == 0 {
		rc.balloonMarginMB = 16
	}
	hostMB := rc.hostMB
	if hostMB == 0 {
		hostMB = 4 * rc.guestMB
	}
	label := fmt.Sprintf("%s/guest%dMB/actual%dMB/host%dMB/vcpus%d/seed%016x",
		rc.scheme, rc.guestMB, rc.actualMB, hostMB, rc.vcpus, rc.seed)

	out := cell{tier: o.Swapback, scheme: rc.scheme}
	st := &cellState{}
	out.failed = o.runShielded(label, rc.seed, st, func() {
		mc := hyper.MachineConfig{
			Seed:         rc.seed,
			HostMemPages: o.pages(hostMB),
			Faults:       o.Faults,
			Swapback:     o.Swapback,
			SwapPolicy:   o.SwapPolicy,
			Budget:       o.cellBudget(),
		}
		if rc.hostTweak != nil {
			rc.hostTweak(&mc)
		}
		m := hyper.NewMachine(mc)
		st.m = m
		var checkAudit func()
		st.auditTail, checkAudit = o.attachAuditor(m, rc.seed)
		if o.TraceRing > 0 {
			m.EnableTrace(o.TraceRing)
		}
		gcfg := guest.DefaultConfig(o.pages(rc.guestMB))
		vmc := hyper.VMConfig{
			Name:       "vm0",
			MemPages:   o.pages(rc.guestMB),
			LimitPages: o.pages(rc.actualMB),
			VCPUs:      rc.vcpus,
			DiskBlocks: int64(o.mb(20*1024)) << 20 / 4096,
			Mapper:     rc.scheme.Mapper(),
			Preventer:  rc.scheme.Preventer(),
			GuestAPF:   true,
			Guest:      &gcfg,
		}
		if rc.actualMB >= rc.guestMB {
			vmc.LimitPages = 0 // uncapped
		}
		if rc.vmTweak != nil {
			rc.vmTweak(&vmc)
		}
		vm := m.NewVM(vmc)

		m.Env.Go("driver", func(p *sim.Proc) {
			vm.Boot(p)
			if rc.scheme.Balloon() && vmc.LimitPages > 0 {
				target := vmc.MemPages - vmc.LimitPages + o.pages(rc.balloonMarginMB)
				vm.OS.SetBalloonTarget(target)
				for vm.OS.BalloonPages() < vm.OS.BalloonTarget() {
					p.Sleep(100 * sim.Millisecond)
				}
			}
			if rc.warmup {
				workload.Warmup(vm, 2048).Wait(p)
			}
			snap := m.Met.Snapshot()
			res := body(vm, p).Wait(p)
			out.met = m.Met.Diff(snap)
			out.runtime, out.iters = res.Runtime(), res.Iterations
			if res.Killed {
				out.killed = 1
			}
			m.Shutdown()
		})
		m.Run()
		checkAudit()
	}) != nil
	if !out.failed && o.runlog != nil {
		o.runlog.add(RunRecord{Label: label, Report: st.m.Report()})
	}
	return out
}

// attachAuditor hooks the invariant auditor into the machine when
// o.AuditEvery is positive. Call the returned check after Machine.Run:
// it panics with a replayable message (machine seed + fault spec) on the
// first invariant violation the run produced. The auditor's recent check
// history is returned too (nil when auditing is off), so failure capture
// can embed it.
func (o Options) attachAuditor(m *hyper.Machine, seed uint64) (history func() []string, check func()) {
	if o.AuditEvery <= 0 {
		return nil, func() {}
	}
	a := audit.Attach(m, o.AuditEvery)
	return a.History, func() {
		if err := a.Final(); err != nil {
			panic(fmt.Sprintf(
				"experiment: invariant violation (replay with seed=%d faults=%q; machine seed %#x): %v",
				o.Seed, o.Faults.String(), seed, err))
		}
	}
}

// attachAudit is attachAuditor without the audit history.
func (o Options) attachAudit(m *hyper.Machine, seed uint64) func() {
	_, check := o.attachAuditor(m, seed)
	return check
}
