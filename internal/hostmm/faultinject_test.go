package hostmm

import (
	"testing"

	"vswapsim/internal/fault"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// inject attaches a fault injector built from spec to the rig's manager.
func (r *rig) inject(spec string) {
	r.mgr.Inj = fault.New(fault.MustParse(spec), sim.DeriveSeed(1, "fault-injector"), r.met)
}

// evictOne drives reclaim until pg leaves residency.
func (r *rig) evictOne(t *testing.T, p *sim.Proc, pg *Page) {
	t.Helper()
	for i := 0; pg.State == ResidentAnon; i++ {
		if i > 8 {
			t.Fatalf("page stuck %s after %d reclaim passes", pg.State, i)
		}
		r.mgr.ReclaimForTest(p, r.cg, 1)
	}
	if pg.State != SwappedOut {
		t.Fatalf("page evicted to %s, want SwappedOut", pg.State)
	}
}

// TestCleanAnonLostBackingIsRewritten is the regression test for the
// eviction guard: a clean resident-anon page whose swap-cache association
// has been lost (the slot was poisoned and dropped) holds the only copy of
// its content, so evicting it must allocate a fresh slot and write — not
// transition to SwappedOut with no backing store.
func TestCleanAnonLostBackingIsRewritten(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		r.evictOne(t, p, pg)
		r.mgr.SwapIn(p, pg, HostCtx)
		if pg.State != ResidentAnon || pg.Dirty {
			t.Fatalf("after swap-in: state=%s dirty=%v, want clean ResidentAnon", pg.State, pg.Dirty)
		}
		if !r.mgr.swapCacheValid(pg) {
			t.Fatal("after swap-in: no swap-cache backing")
		}

		// Sever the association the way slot poisoning does, but leave the
		// page clean — the regression scenario is a path that drops the slot
		// and forgets to re-dirty, so the eviction guard is the only defense.
		r.swap.Free(pg.slot())
		pg.SwapSlot = -1

		writesBefore := r.met.Get(metrics.SwapWriteOps)
		r.evictOne(t, p, pg)
		if pg.SwapSlot < 0 {
			t.Fatal("evicted without a slot: content silently lost")
		}
		if r.swap.Owner(pg.slot()) != pg {
			t.Fatal("evicted to a slot owned by someone else")
		}
		if r.met.Get(metrics.SwapWriteOps) == writesBefore {
			t.Fatal("eviction issued no swap write for the only copy")
		}
	})
	if err := r.mgr.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestSwapInPoisonDegradesToPlainSwap checks the transient-failure
// exhaustion path end to end, repeatedly: every swap-in poisons the slot
// (rate-1 plan), each poisoning drops the slot and re-dirties the page, and
// each subsequent eviction therefore writes a fresh copy. The cycle is
// idempotent — state and audit stay consistent no matter how many times it
// repeats.
func TestSwapInPoisonDegradesToPlainSwap(t *testing.T) {
	r := newRig(t, 1000, 0)
	r.inject("swapin-fail:1")
	pg := r.mgr.NewPage(r.cg, 0)
	const cycles = 3
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		for c := 0; c < cycles; c++ {
			r.evictOne(t, p, pg)
			if err := r.mgr.Audit(); err != nil {
				t.Fatalf("cycle %d, after eviction: %v", c, err)
			}
			r.mgr.SwapIn(p, pg, HostCtx)
			if pg.State != ResidentAnon {
				t.Fatalf("cycle %d: swap-in left page %s", c, pg.State)
			}
			if !pg.Dirty || pg.SwapSlot != -1 {
				t.Fatalf("cycle %d: poisoned page dirty=%v slot=%d, want dirty, slotless",
					c, pg.Dirty, pg.SwapSlot)
			}
			if err := r.mgr.Audit(); err != nil {
				t.Fatalf("cycle %d, after poisoned swap-in: %v", c, err)
			}
		}
	})
	if got := r.met.Get(metrics.FaultSwapInPoisoned); got != cycles {
		t.Errorf("%s = %d, want %d", metrics.FaultSwapInPoisoned, got, cycles)
	}
	if r.met.Get(metrics.FaultSwapInRetries) == 0 {
		t.Error("no retries recorded before poisoning")
	}
	// Every eviction after the first re-wrote the only copy.
	if got := r.met.Get(metrics.HostSwapOuts); got != cycles {
		t.Errorf("%s = %d, want %d", metrics.HostSwapOuts, got, cycles)
	}
}

// TestSlotRefusalRotatesVictim: with the allocator refusing every request,
// reclaim rotates dirty victims instead of evicting them slotless, makes no
// progress, and leaves fully consistent state.
func TestSlotRefusalRotatesVictim(t *testing.T) {
	r := newRig(t, 1000, 0)
	r.inject("slot-exhaust:1")
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		freed := r.mgr.ReclaimForTest(p, r.cg, 1)
		if freed != 0 {
			t.Fatalf("reclaim freed %d pages with every slot allocation refused", freed)
		}
	})
	if pg.State != ResidentAnon {
		t.Fatalf("page left %s, want ResidentAnon", pg.State)
	}
	if r.met.Get(metrics.FaultSlotRefusals) == 0 {
		t.Error("no slot refusals recorded")
	}
	if err := r.mgr.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestAuditCatchesLostBacking: the extended structural audit must flag a
// clean resident-anon page without swap-cache backing (the corruption the
// eviction guard defends against) when it is manufactured directly.
func TestAuditCatchesLostBacking(t *testing.T) {
	r := newRig(t, 1000, 0)
	pg := r.mgr.NewPage(r.cg, 0)
	r.run(t, func(p *sim.Proc) {
		r.mgr.FirstTouch(p, pg, GuestCtx)
		r.evictOne(t, p, pg)
		r.mgr.SwapIn(p, pg, HostCtx)
	})
	if err := r.mgr.Audit(); err != nil {
		t.Fatalf("audit on clean state: %v", err)
	}
	r.swap.Free(pg.slot())
	pg.SwapSlot = -1
	if err := r.mgr.Audit(); err == nil {
		t.Fatal("audit missed clean anon page with no swap-cache backing")
	}
}
