// Package experiment reproduces every table and figure of the paper's
// evaluation (§5): each experiment builds the machine/guest configuration
// the paper describes, runs the matching workload generator under the five
// schemes (baseline, ballooning, mapper-only, vswapper, balloon+vswapper),
// and reports the same rows/series the paper plots.
package experiment

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
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

// count scales a workload's count (pages, files) linearly, floored at
// one: a zero would stand for the workload's paper-sized default.
func (o Options) count(v int) int { return max(1, int(float64(v)*o.Scale)) }

// pages converts scaled MiB to pages.
func (o Options) pages(v int) int { return o.mb(v) << 20 / 4096 }

// guestDiskBlocks sizes the disk image of a guest with memMB of memory
// (both figures pre-scale). The guest swap partition is as large as guest
// memory and lives on the image, so the scaled image must exceed the
// scaled memory. mb rounds and floors each size on its own, so a file
// whose disk exceeds its memory can still tie once scaled; such a cell
// fails here, naming both scaled sizes, before it builds a machine.
func (o Options) guestDiskBlocks(diskMB, memMB int) int64 {
	disk, mem := o.mb(diskMB), o.mb(memMB)
	if disk <= mem {
		panic(fmt.Sprintf("experiment: at scale %g disk_mb %d scales to %d MB and guest memory %d MB to %d MB: "+
			"the disk must exceed memory, because the guest swap area, as large as memory, lives on it",
			o.Scale, diskMB, disk, memMB, mem))
	}
	return int64(disk) << 20 / 4096
}

// Table is a formatted result table, and the form a document carries it
// in.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns. A row may hold more
// cells than the table has columns (a served document is outside input),
// so the widths cover the widest row.
func (t *Table) String() string {
	n := len(t.Columns)
	for _, r := range t.Rows {
		n = max(n, len(r))
	}
	widths := make([]int, n)
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
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

// Report is one experiment's output, and its entry in a document: the
// identity, tables and notes the text report prints, the fingerprint over
// them, one RunRecord per simulated machine, and the FailureRecords of the
// cells that were killed, panicked, or were canceled. RunAll fills the
// last three when the experiment finishes (see finish).
type Report struct {
	ID          string      `json:"id"`
	Title       string      `json:"title"`
	PaperNote   string      `json:"paper_note,omitempty"`
	Fingerprint string      `json:"fingerprint"`
	Tables      []*Table    `json:"tables"`
	Notes       []string    `json:"notes,omitempty"`
	Runs        []RunRecord `json:"runs,omitempty"`
	// Failures is omitted on a healthy run, so its document is
	// byte-identical to pre-hardening output.
	Failures []FailureRecord `json:"failures,omitempty"`
	// AssertionFailures counts scenario assertions that did not hold (the
	// details are also in Notes as "ASSERTION FAILED" lines, so they are
	// fingerprinted); the CLI maps a nonzero count to exit code 1. Always
	// zero for hand-coded experiments.
	AssertionFailures int `json:"-"`
	// cells are the cells the tables read, in table order, until finish
	// takes their records and releases them.
	cells []cell
}

// keep appends c to the cells the report reads and returns it.
func (r *Report) keep(c cell) cell {
	r.cells = append(r.cells, c)
	return c
}

// finish completes a report whose tables and notes are written. It takes
// the run and failure records of the report's cells, in cell order,
// stably sorted by label, and releases the cells: a finished document
// holds its tables and records, not its cells' counter maps, while it is
// serialized and served. Then it sets the fingerprint, a SHA-256 over the
// report's identity and every table rendered as CSV (where all the metric
// counters the report surfaces end up), plus its notes; the determinism
// golden tests compare fingerprints across runs and against testdata/.
// Neither records nor fingerprint depend on which worker ran a cell or
// when, so documents are bit-identical between serial and parallel runs.
func (r *Report) finish() {
	for _, c := range r.cells {
		r.Runs = append(r.Runs, c.runs...)
		if c.failed() {
			r.Failures = append(r.Failures, *c.failure)
		}
	}
	r.cells = nil
	slices.SortStableFunc(r.Runs, func(a, b RunRecord) int { return strings.Compare(a.Label, b.Label) })
	slices.SortStableFunc(r.Failures, func(a, b FailureRecord) int { return strings.Compare(a.Label, b.Label) })

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
	r.Fingerprint = hex.EncodeToString(h.Sum(nil))
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

// Experiment couples an id with its runner.
type Experiment struct {
	ID        string
	Title     string
	PaperNote string
	Run       func(Options) *Report
}

// secs formats a virtual duration as seconds.
func secs(d sim.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// runCfg describes one single-guest controlled-memory run (paper §5.1).
type runCfg struct {
	opts   Options
	scheme scenario.Scheme
	// seed, when nonzero, overrides opts.Seed for this run's machine.
	// A sweep's cells set it to sim.DeriveSeed(opts.Seed, scenario name,
	// scheme, size), so each cell is an independent,
	// scheduling-order-free stream.
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

// cellHost is one machine of a cell. A cluster cell names its hosts, and
// the name suffixes the host's run record label. Audit lines carry the
// name, or "host" for the unnamed machine of a one-host cell.
type cellHost struct {
	name string
	m    *hyper.Machine
}

// runCell runs one cell under the envelope every cell kind shares. It
// takes a run slot, creates the cell's event loop under o's watchdog
// budget, and hands build a host template that carries the cell seed,
// that loop and o's fault plan, swap tier and policy. build returns the
// machines it made and the driver that runs them. runCell attaches o's
// trace ring to every machine and, when o.AuditEvery is positive, one
// audit group over all of them; then it runs the driver under the
// run-hardening shield and checks the audit. A driver's error, like an
// audit violation, fails the cell with a replayable message. A completed
// cell gets one run record per machine, labelled label, or label/<name>
// for a named host.
func (o Options) runCell(label string, seed uint64,
	build func(hyper.MachineConfig) ([]cellHost, func() error)) ([]RunRecord, *FailureRecord) {
	release := o.acquire()
	defer release()
	var hosts []cellHost
	st := &cellState{}
	fail := o.runShielded(label, seed, st, func() {
		env := sim.NewEnv(seed)
		env.SetBudget(o.cellBudget())
		var run func() error
		hosts, run = build(hyper.MachineConfig{
			Seed: seed, Env: env, Faults: o.Faults, Swapback: o.Swapback, SwapPolicy: o.SwapPolicy,
		})
		st.m = hosts[0].m
		names := make([]string, len(hosts))
		ms := make([]*hyper.Machine, len(hosts))
		for i, h := range hosts {
			names[i], ms[i] = cmp.Or(h.name, "host"), h.m
			if o.TraceRing > 0 {
				h.m.EnableTrace(o.TraceRing)
			}
		}
		check := func() error { return nil }
		if o.AuditEvery > 0 {
			g := audit.AttachGroup(env, ms, names, o.AuditEvery)
			st.auditTail, check = g.History, g.Final
		}
		err := run()
		if err == nil {
			err = check()
		}
		if err != nil {
			panic(fmt.Sprintf("experiment: invariant violation (replay with seed=%d faults=%q; cell seed %#x): %v",
				o.Seed, o.Faults.String(), seed, err))
		}
	})
	if fail != nil {
		return nil, fail
	}
	runs := make([]RunRecord, len(hosts))
	for i, h := range hosts {
		runs[i] = RunRecord{Label: label, Report: h.m.Report()}
		if h.name != "" {
			runs[i].Label += "/" + h.name
		}
	}
	return runs, nil
}

// runSingle executes one controlled-memory scenario: boot, optional static
// balloon, optional warm-up, then the measured body, as one cell (see
// runCell), so a watchdog kill or a panic in this cell degrades to a
// failed cell carrying its FailureRecord instead of aborting the sweep.
// A completed cell carries its machine's RunRecord.
func runSingle(rc runCfg, body func(vm *hyper.VM, p *sim.Proc) *workload.Job) cell {
	o := rc.opts.normalized()
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
	out.runs, out.failure = o.runCell(label, rc.seed, func(mc hyper.MachineConfig) ([]cellHost, func() error) {
		mc.HostMemPages = o.pages(hostMB)
		if rc.hostTweak != nil {
			rc.hostTweak(&mc)
		}
		m := hyper.NewMachine(mc)
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

		return []cellHost{{m: m}}, func() error {
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
			return nil
		}
	})
	return out
}
