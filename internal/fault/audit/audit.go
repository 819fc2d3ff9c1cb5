// Package audit is the invariant-audit harness: a machine-checked
// correctness oracle that can run after every simulated event (test mode)
// and asserts the global invariants the fault-injection layer is supposed
// to preserve — no page mapped twice, swap-slot refcounts consistent,
// pathology and fault counters monotone, the virtual clock monotonic —
// on top of hostmm's own structural Audit.
//
// Attach a Group with AttachGroup before the machines run; afterwards
// call its Final and treat a non-nil error as a failed run, replayable
// from the seed and the fault plan spec.
package audit

import (
	"fmt"

	"vswapsim/internal/hostmm"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// monotoneCounters never decrease over a run; the auditor snapshots and
// re-checks them on every pass.
var monotoneCounters = []string{
	metrics.SilentSwapWrites,
	metrics.StaleSwapReads,
	metrics.FalseSwapReads,
	metrics.HostSwapOuts,
	metrics.HostSwapIns,
	metrics.HostMajorFaults,
	metrics.HostMinorFaults,
	metrics.DiskOps,
	metrics.FaultDiskReadErrors,
	metrics.FaultDiskWriteErrors,
	metrics.FaultDiskDelays,
	metrics.FaultDiskRetries,
	metrics.FaultDiskExhausted,
	metrics.FaultSwapInTransient,
	metrics.FaultSwapInRetries,
	metrics.FaultSwapInPoisoned,
	metrics.FaultSlotRefusals,
	metrics.FaultBalloonRefusals,
	metrics.FaultEmuStarved,
	metrics.FaultMapperPoisoned,
}

// Auditor checks one machine's global invariants for a Group, which
// strides the checks across simulated events. It records the first
// violation and stops checking (the state is already corrupt; later
// failures would only obscure the origin).
type Auditor struct {
	m       *hyper.Machine
	checks  int64
	lastNow sim.Time
	mono    map[string]int64
	err     error
	// seen marks the pages a pass has visited, by descriptor index; one
	// bitset serves every pass.
	seen []uint64
	// hist is a bounded ring of the most recent checks, which History
	// formats as one-line summaries; crash-diagnostics bundles embed them
	// so a killed or panicked run shows how far the invariants were last
	// known to hold.
	hist []checkNote
}

// checkNote records one check: its number, when it ran and its verdict.
type checkNote struct {
	n   int64
	at  sim.Time
	err error
}

func (c checkNote) String() string {
	if c.err == nil {
		return fmt.Sprintf("audit #%d at %v: ok", c.n, c.at)
	}
	return fmt.Sprintf("audit #%d at %v: VIOLATION: %v", c.n, c.at, c.err)
}

// histCap bounds how many recent check summaries History retains.
const histCap = 8

// Checks reports how many full audits ran.
func (a *Auditor) Checks() int64 { return a.checks }

// History returns one-line summaries of the most recent checks (oldest
// first, at most histCap). The content is a pure function of the run, so
// failure records embedding it stay byte-identical across serial and
// parallel sweeps.
func (a *Auditor) History() []string {
	out := make([]string, len(a.hist))
	for i, c := range a.hist {
		out[i] = c.String()
	}
	return out
}

func (a *Auditor) note(c checkNote) {
	if len(a.hist) == histCap {
		copy(a.hist, a.hist[1:])
		a.hist = a.hist[:histCap-1]
	}
	a.hist = append(a.hist, c)
}

// Final runs one last check (so short runs audit at least once) and
// returns the first violation seen over the whole run, or nil.
func (a *Auditor) Final() error {
	if a.err == nil {
		if err := a.Check(); err != nil {
			a.err = fmt.Errorf("at %v: %w", a.m.Env.Now(), err)
		}
	}
	return a.err
}

// Group audits the machines that share one event loop: the experiment
// layer attaches one per cell, over its one machine or all its cluster
// hosts. A sim.Env carries a single after-event hook, so the group
// installs one hook and strides a full per-machine audit across all
// members. Violations and history lines carry the host label.
type Group struct {
	every    int
	tick     int
	labels   []string
	auditors []*Auditor
	err      error
}

// AttachGroup hooks a group auditor into the shared event loop, auditing
// every machine once per `every` events (minimum 1). Attach before the
// env runs; read Final afterwards. labels name the hosts in violation
// messages and must parallel ms.
func AttachGroup(env *sim.Env, ms []*hyper.Machine, labels []string, every int) *Group {
	if every < 1 {
		every = 1
	}
	g := &Group{every: every, labels: labels}
	for _, m := range ms {
		g.auditors = append(g.auditors, &Auditor{m: m, mono: make(map[string]int64)})
	}
	env.SetAfterEvent(g.step)
	return g
}

// History returns the members' recent check summaries, labeled by host.
func (g *Group) History() []string {
	var out []string
	for i, a := range g.auditors {
		for _, line := range a.History() {
			out = append(out, g.labels[i]+": "+line)
		}
	}
	return out
}

func (g *Group) step() {
	if g.err != nil {
		return
	}
	g.tick++
	if g.tick < g.every {
		return
	}
	g.tick = 0
	for i, a := range g.auditors {
		if a.err != nil {
			continue
		}
		if err := a.Check(); err != nil {
			a.err = fmt.Errorf("at %v: %w", a.m.Env.Now(), err)
			g.err = fmt.Errorf("host %s: %w", g.labels[i], a.err)
			return
		}
	}
}

// Final runs one last check on every member and returns the first
// violation seen over the whole run, or nil.
func (g *Group) Final() error {
	if g.err != nil {
		return g.err
	}
	for i, a := range g.auditors {
		if err := a.Final(); err != nil {
			g.err = fmt.Errorf("host %s: %w", g.labels[i], err)
			return g.err
		}
	}
	return nil
}

// Check runs one full audit pass and returns the first violation found.
func (a *Auditor) Check() error {
	err := a.check()
	a.note(checkNote{n: a.checks, at: a.m.Env.Now(), err: err})
	return err
}

func (a *Auditor) check() error {
	a.checks++

	// 1. Clock monotonic.
	now := a.m.Env.Now()
	if now < a.lastNow {
		return fmt.Errorf("clock went backwards: %v after %v", now, a.lastNow)
	}
	a.lastNow = now

	// 2. Host-MM structural invariants (lists, charges, swap refcounts).
	if err := a.m.MM.Audit(); err != nil {
		return err
	}

	// 3. Cross-layer page invariants over every materialized page.
	a.seen = resetBits(a.seen, a.m.MM.NumPages())
	for _, vm := range a.m.VMs {
		var pageErr error
		vm.EachPage(func(pg *hostmm.Page) {
			if pageErr == nil {
				pageErr = a.checkPage(vm, pg)
			}
		})
		if pageErr != nil {
			return pageErr
		}
	}

	// 4. Pathology and fault counters only move forward.
	for _, name := range monotoneCounters {
		v := a.m.Met.Get(name)
		if v < a.mono[name] {
			return fmt.Errorf("counter %s went backwards: %d after %d", name, v, a.mono[name])
		}
		a.mono[name] = v
	}
	return nil
}

// checkPage checks one page that vm materialized. A location label is
// formatted only for a violation.
func (a *Auditor) checkPage(vm *hyper.VM, pg *hostmm.Page) error {
	mm := a.m.MM
	i := pg.Index()
	if mm.Page(i) != pg {
		return fmt.Errorf("%s: not a page descriptor of this host", where(vm, pg))
	}
	if a.seen[i>>6]&(1<<(i&63)) != 0 {
		return fmt.Errorf("page mapped twice: %s and %s", a.firstVisit(pg), where(vm, pg))
	}
	a.seen[i>>6] |= 1 << (i & 63)
	if owner := mm.Owner(pg); owner != vm.CG {
		return fmt.Errorf("%s: owned by cgroup %s, not %s", where(vm, pg), owner.Name, vm.CG.Name)
	}
	if pg.EPT && !pg.State.Resident() {
		return fmt.Errorf("%s: EPT-mapped but %s", where(vm, pg), pg.State)
	}
	if pg.State == hostmm.SwappedOut {
		if pg.SwapSlot < 0 {
			return fmt.Errorf("%s: swapped out without a slot", where(vm, pg))
		}
		if mm.Swap.Owner(int64(pg.SwapSlot)) != pg {
			return fmt.Errorf("%s: swapped out to slot %d owned by someone else", where(vm, pg), pg.SwapSlot)
		}
	}
	return nil
}

// where labels a page for a violation message.
func where(vm *hyper.VM, pg *hostmm.Page) string {
	return fmt.Sprintf("%s/page%d", vm.Cfg.Name, pg.ID)
}

// firstVisit labels the first place a pass visits pg, for the report of a
// page seen twice.
func (a *Auditor) firstVisit(pg *hostmm.Page) string {
	for _, vm := range a.m.VMs {
		found := false
		vm.EachPage(func(q *hostmm.Page) { found = found || q == pg })
		if found {
			return where(vm, pg)
		}
	}
	return "?"
}

// resetBits returns a cleared bitset of at least n bits, reusing bits.
func resetBits(bits []uint64, n int) []uint64 {
	words := (n + 63) / 64
	if cap(bits) < words {
		return make([]uint64, words)
	}
	bits = bits[:words]
	clear(bits)
	return bits
}
