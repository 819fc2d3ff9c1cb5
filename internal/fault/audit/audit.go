// Package audit is the invariant-audit harness: a machine-checked
// correctness oracle that can run after every simulated event (test mode)
// and asserts the global invariants the fault-injection layer is supposed
// to preserve — no page mapped twice, swap-slot refcounts consistent,
// pathology and fault counters monotone, the virtual clock monotonic —
// on top of hostmm's own structural Audit.
//
// Attach it before Machine.Run; afterwards call Final and treat a non-nil
// error as a failed run, replayable from the seed and the fault plan
// spec.
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

// Auditor checks a machine's global invariants, strided across simulated
// events. It records the first violation and stops checking (the state is
// already corrupt; later failures would only obscure the origin).
type Auditor struct {
	m       *hyper.Machine
	every   int
	tick    int
	checks  int64
	lastNow sim.Time
	mono    map[string]int64
	err     error
	// hist is a bounded ring of one-line summaries of the most recent
	// checks; crash-diagnostics bundles embed it so a killed or panicked
	// run shows how far the invariants were last known to hold.
	hist []string
}

// histCap bounds how many recent check summaries History retains.
const histCap = 8

// Attach hooks an auditor into the machine's event loop, running one full
// Check every `every` events (minimum 1). A full check is O(pages), so
// large simulations should stride; tiny unit tests can afford every=1.
// Attach before Machine.Run; read Final after.
func Attach(m *hyper.Machine, every int) *Auditor {
	if every < 1 {
		every = 1
	}
	a := &Auditor{m: m, every: every, mono: make(map[string]int64)}
	m.Env.SetAfterEvent(a.step)
	return a
}

// Detach removes the event hook.
func (a *Auditor) Detach() { a.m.Env.SetAfterEvent(nil) }

// Checks reports how many full audits ran.
func (a *Auditor) Checks() int64 { return a.checks }

// History returns one-line summaries of the most recent checks (oldest
// first, at most histCap). The content is a pure function of the run, so
// failure records embedding it stay byte-identical across serial and
// parallel sweeps.
func (a *Auditor) History() []string {
	out := make([]string, len(a.hist))
	copy(out, a.hist)
	return out
}

func (a *Auditor) note(s string) {
	if len(a.hist) == histCap {
		copy(a.hist, a.hist[1:])
		a.hist = a.hist[:histCap-1]
	}
	a.hist = append(a.hist, s)
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

func (a *Auditor) step() {
	if a.err != nil {
		return
	}
	a.tick++
	if a.tick < a.every {
		return
	}
	a.tick = 0
	if err := a.Check(); err != nil {
		a.err = fmt.Errorf("at %v: %w", a.m.Env.Now(), err)
	}
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
		g.auditors = append(g.auditors, &Auditor{m: m, every: 1, mono: make(map[string]int64)})
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
	if err == nil {
		a.note(fmt.Sprintf("audit #%d at %v: ok", a.checks, a.m.Env.Now()))
	} else {
		a.note(fmt.Sprintf("audit #%d at %v: VIOLATION: %v", a.checks, a.m.Env.Now(), err))
	}
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
	seen := make(map[*hostmm.Page]string)
	var pageErr error
	for _, vm := range a.m.VMs {
		vm := vm
		vm.EachPage(func(pg *hostmm.Page) {
			if pageErr != nil {
				return
			}
			where := fmt.Sprintf("%s/page%d", vm.Cfg.Name, pg.ID)
			if prev, dup := seen[pg]; dup {
				pageErr = fmt.Errorf("page mapped twice: %s and %s", prev, where)
				return
			}
			seen[pg] = where
			if pg.Owner != vm.CG {
				pageErr = fmt.Errorf("%s: owned by cgroup %s, not %s", where, pg.Owner.Name, vm.CG.Name)
				return
			}
			if pg.EPT && !pg.State.Resident() {
				pageErr = fmt.Errorf("%s: EPT-mapped but %s", where, pg.State)
				return
			}
			if pg.State == hostmm.SwappedOut {
				if pg.SwapSlot < 0 {
					pageErr = fmt.Errorf("%s: swapped out without a slot", where)
					return
				}
				if a.m.MM.Swap.Owner(pg.SwapSlot) != pg {
					pageErr = fmt.Errorf("%s: swapped out to slot %d owned by someone else", where, pg.SwapSlot)
					return
				}
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
