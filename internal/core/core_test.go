package core

import (
	"testing"

	"vswapsim/internal/disk"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

type rig struct {
	env  *sim.Env
	met  *metrics.Set
	mm   *hostmm.Manager
	cg   *hostmm.Cgroup
	img  *hostmm.File
	pv   *Preventer
	mp   *Mapper
	swap *hostmm.SwapArea
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	model := disk.Constellation7200()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	imgRegion := layout.Reserve("img", 1<<16)
	swap := hostmm.NewSwapArea(layout.Reserve("swap", 1<<14))
	pool := mem.NewFramePool(1 << 16)
	mm := hostmm.NewManager(env, met, dev, pool, swap, hostmm.Config{})
	img := mm.NewFile("img", imgRegion)
	cg := mm.NewCgroup("vm0", 0)
	return &rig{
		env:  env,
		met:  met,
		mm:   mm,
		cg:   cg,
		img:  img,
		swap: swap,
		pv:   NewPreventer(mm, met, env, PreventerConfig{}),
		mp:   NewMapper(mm, met, img, DefaultMapperConfig()),
	}
}

// swappedPage fabricates a swapped-out anonymous page.
func (r *rig) swappedPage(t *testing.T, id int) *hostmm.Page {
	t.Helper()
	pg := r.mm.NewPage(r.cg, id)
	pg.State = hostmm.SwappedOut
	slot := r.swap.Alloc(pg)
	if slot < 0 {
		t.Fatal("swap full")
	}
	pg.SwapSlot = int32(slot)
	return pg
}

func (r *rig) run(fn func(p *sim.Proc)) {
	r.env.Go("test", fn)
	r.env.Run()
}

func TestPreventerRepShortCircuit(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		if !r.pv.HandleWriteFault(p, pg, 0, mem.PageSize, true) {
			t.Fatal("REP write not absorbed")
		}
	})
	if pg.State != hostmm.ResidentAnon || !pg.EPT {
		t.Fatalf("state=%v", pg.State)
	}
	if r.met.Get(metrics.PreventerRemaps) != 1 {
		t.Fatal("remap not counted")
	}
	if r.met.Get(metrics.SwapReadSectors) != 0 {
		t.Fatal("REP short-circuit must not read")
	}
}

func TestPreventerSequentialFillRemaps(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		if !r.pv.HandleWriteFault(p, pg, 0, 256, false) {
			t.Fatal("first sequential write refused")
		}
		for off := 256; off < mem.PageSize; off += 256 {
			r.pv.OnAccess(p, pg, true, off, 256, false)
		}
	})
	if pg.State != hostmm.ResidentAnon {
		t.Fatalf("state=%v after full sequential fill", pg.State)
	}
	if r.met.Get(metrics.PreventerRemaps) != 1 {
		t.Fatal("no remap")
	}
	if r.met.Get(metrics.SwapReadSectors) != 0 {
		t.Fatal("sequential fill must not read old content")
	}
	if r.pv.Active() != 0 {
		t.Fatal("active count not released")
	}
}

func TestPreventerNonSequentialMerges(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		r.pv.HandleWriteFault(p, pg, 0, 256, false)
		r.pv.OnAccess(p, pg, true, 2048, 256, false) // hole: merge
	})
	if pg.State != hostmm.ResidentAnon {
		t.Fatalf("state=%v", pg.State)
	}
	if r.met.Get(metrics.PreventerMerges) != 1 {
		t.Fatal("no merge")
	}
	if r.met.Get(metrics.SwapReadSectors) == 0 {
		t.Fatal("merge must read old content")
	}
}

func TestPreventerDeadlineForcesMerge(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		r.pv.HandleWriteFault(p, pg, 0, 256, false)
		p.Sleep(10 * sim.Millisecond) // > 1 ms deadline
	})
	if pg.State != hostmm.ResidentAnon {
		t.Fatalf("state=%v after deadline", pg.State)
	}
	if r.met.Get(metrics.PreventerMerges) != 1 {
		t.Fatal("deadline did not merge")
	}
}

func TestPreventerMidPageFirstWriteRefused(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		if r.pv.HandleWriteFault(p, pg, 1000, 64, false) {
			t.Fatal("mid-page first write should not start emulation")
		}
	})
	if pg.State != hostmm.SwappedOut {
		t.Fatalf("state=%v", pg.State)
	}
}

func TestPreventerConcurrencyCap(t *testing.T) {
	r := newRig(t)
	pages := make([]*hostmm.Page, 40)
	for i := range pages {
		pages[i] = r.swappedPage(t, i)
	}
	r.run(func(p *sim.Proc) {
		accepted := 0
		for _, pg := range pages {
			if r.pv.HandleWriteFault(p, pg, 0, 64, false) {
				accepted++
			}
		}
		if accepted != 32 {
			t.Fatalf("accepted %d, want 32 (the cap)", accepted)
		}
		if r.pv.Active() != 32 {
			t.Fatalf("active = %d", r.pv.Active())
		}
		// Deadline passes: all merge, cap frees up.
		p.Sleep(20 * sim.Millisecond)
		if r.pv.Active() != 0 {
			t.Fatalf("active = %d after deadline", r.pv.Active())
		}
	})
}

func TestPreventerReadFromBufferEmulated(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		r.pv.HandleWriteFault(p, pg, 0, 1024, false)
		reads := r.met.Get(metrics.SwapReadSectors)
		r.pv.OnAccess(p, pg, false, 0, 512, false) // covered read
		if r.met.Get(metrics.SwapReadSectors) != reads {
			t.Fatal("covered read triggered I/O")
		}
		if pg.State != hostmm.Emulated {
			t.Fatal("covered read ended emulation")
		}
	})
}

func TestPreventerReadBeyondBufferBlocksUntilMerge(t *testing.T) {
	r := newRig(t)
	pg := r.swappedPage(t, 0)
	r.run(func(p *sim.Proc) {
		r.pv.HandleWriteFault(p, pg, 0, 1024, false)
		start := p.Now()
		r.pv.OnAccess(p, pg, false, 2048, 64, false) // uncovered read
		if pg.State != hostmm.ResidentAnon {
			t.Fatalf("state=%v", pg.State)
		}
		if p.Now() == start {
			t.Fatal("uncovered read did not wait for the merge I/O")
		}
	})
}

func TestPreventerForceFinalizeKeepsOrDropsContent(t *testing.T) {
	r := newRig(t)
	keep := r.swappedPage(t, 0)
	drop := r.swappedPage(t, 1)
	r.run(func(p *sim.Proc) {
		r.pv.HandleWriteFault(p, keep, 0, 64, false)
		r.pv.HandleWriteFault(p, drop, 0, 64, false)
		before := r.met.Get(metrics.SwapReadSectors)
		r.pv.ForceFinalize(p, drop, false)
		if r.met.Get(metrics.SwapReadSectors) != before {
			t.Error("drop path must not read")
		}
		r.pv.ForceFinalize(p, keep, true)
		if r.met.Get(metrics.SwapReadSectors) == before {
			t.Error("keep path must read old content")
		}
	})
	if keep.State != hostmm.ResidentAnon || drop.State != hostmm.ResidentAnon {
		t.Fatal("pages not finalized")
	}
}

func TestPreventerEmulatedWorksForNamedPages(t *testing.T) {
	r := newRig(t)
	pg := r.mm.NewFilePage(r.cg, 0, r.img.Ref(5))
	r.run(func(p *sim.Proc) {
		if !r.pv.HandleWriteFault(p, pg, 0, mem.PageSize, true) {
			t.Fatal("full write to named page refused")
		}
	})
	if pg.State != hostmm.ResidentAnon {
		t.Fatalf("state=%v", pg.State)
	}
	if r.img.MappingAt(5) != nil {
		t.Fatal("mapping not removed on remap")
	}
}

func TestMapperOnDiskReadMapsPages(t *testing.T) {
	r := newRig(t)
	pages := make([]*hostmm.Page, 8)
	for i := range pages {
		pages[i] = r.mm.NewPage(r.cg, i)
	}
	r.run(func(p *sim.Proc) {
		r.mp.OnDiskRead(p, pages, 100)
	})
	for i, pg := range pages {
		if pg.State != hostmm.ResidentFile || !pg.EPT {
			t.Fatalf("page %d: state=%v ept=%v", i, pg.State, pg.EPT)
		}
		if pg.Backing.Block != int32(100+i) {
			t.Fatalf("page %d backed by block %d", i, pg.Backing.Block)
		}
	}
	if r.mp.TrackedPages() != 8 {
		t.Fatalf("tracked = %d", r.mp.TrackedPages())
	}
}

func TestMapperAfterDiskWriteAdopts(t *testing.T) {
	r := newRig(t)
	pg := r.mm.NewPage(r.cg, 0)
	r.run(func(p *sim.Proc) {
		r.mm.FirstTouch(p, pg, hostmm.GuestCtx)
		r.mp.AfterDiskWrite(p, []*hostmm.Page{pg}, 42)
	})
	if pg.State != hostmm.ResidentFile || pg.Backing.Block != 42 {
		t.Fatalf("state=%v block=%d", pg.State, pg.Backing.Block)
	}
}

func TestMapperAfterDiskWriteSkipsAlreadyMapped(t *testing.T) {
	r := newRig(t)
	pg := r.mm.NewPage(r.cg, 0)
	r.run(func(p *sim.Proc) {
		r.mm.FirstTouch(p, pg, hostmm.GuestCtx)
		r.mp.AfterDiskWrite(p, []*hostmm.Page{pg}, 42)
		est := r.met.Get(metrics.MapperEstablish)
		r.mp.AfterDiskWrite(p, []*hostmm.Page{pg}, 42) // same block again
		if r.met.Get(metrics.MapperEstablish) != est {
			t.Error("re-established an existing identical mapping")
		}
	})
}

func TestMapperInvalidateDisabledAblation(t *testing.T) {
	r := newRig(t)
	r.mp.Cfg.InvalidateDisabled = true
	pg := r.mm.NewFilePage(r.cg, 0, r.img.Ref(7))
	r.run(func(p *sim.Proc) {
		r.mp.BeforeDiskWrite(p, 7, 1)
	})
	if pg.State != hostmm.FileNonResident {
		t.Fatal("ablation should skip invalidation (demonstrating the inconsistency)")
	}
	if r.met.Get(metrics.MapperInvalidate) != 0 {
		t.Fatal("counted invalidation while disabled")
	}
}

func TestPreventerDefaults(t *testing.T) {
	pv := NewPreventer(nil, metrics.NewSet(), sim.NewEnv(1), PreventerConfig{})
	if pv.Cfg.Deadline != sim.Millisecond {
		t.Fatalf("deadline = %v", pv.Cfg.Deadline)
	}
	if pv.Cfg.MaxConcurrent != 32 {
		t.Fatalf("max = %d", pv.Cfg.MaxConcurrent)
	}
}
