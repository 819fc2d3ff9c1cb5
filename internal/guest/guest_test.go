package guest

import (
	"testing"

	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// fakePlat records platform calls and charges a fixed latency per disk op,
// so guest logic can be tested without the hypervisor.
type fakePlat struct {
	env       *sim.Env
	diskLat   sim.Duration
	reads     int
	readPages int
	writes    []writeRec
	touches   int
	overs     int
	spans     int
	balloonIn int
}

type writeRec struct {
	start int64
	n     int
}

func (f *fakePlat) TouchPage(p *sim.Proc, gfn int, write bool) { f.touches++ }
func (f *fakePlat) OverwritePage(p *sim.Proc, gfn int, rep bool) {
	f.overs++
}
func (f *fakePlat) WriteSpan(p *sim.Proc, gfn int, off, n int) { f.spans++ }
func (f *fakePlat) DiskRead(p *sim.Proc, gfns []int, start int64) {
	f.reads++
	f.readPages += len(gfns)
	p.Sleep(f.diskLat)
}
func (f *fakePlat) DiskWrite(p *sim.Proc, gfns []int, start int64) {
	f.writes = append(f.writes, writeRec{start: start, n: len(gfns)})
	p.Sleep(f.diskLat)
}
func (f *fakePlat) BalloonRelease(gfns []int) { f.balloonIn += len(gfns) }
func (f *fakePlat) BalloonReclaim(gfns []int) { f.balloonIn -= len(gfns) }

type grig struct {
	env  *sim.Env
	met  *metrics.Set
	plat *fakePlat
	fs   *FileSystem
	os   *OS
}

func newGuest(t *testing.T, memPages int, cfgMut func(*Config)) *grig {
	t.Helper()
	env := sim.NewEnv(1)
	met := metrics.NewSet()
	plat := &fakePlat{env: env, diskLat: sim.Millisecond}
	fs := NewFileSystem(1<<20, 1<<15) // 4 GiB disk, 128 MiB swap
	cfg := DefaultConfig(memPages)
	cfg.KernelPages = 16
	cfg.KernelHotPages = 4
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	os := NewOS(env, met, plat, fs, cfg)
	return &grig{env: env, met: met, plat: plat, fs: fs, os: os}
}

// run boots the OS and executes fn as a guest thread, then shuts down.
func (g *grig) run(t *testing.T, fn func(th *Thread)) {
	t.Helper()
	g.env.Go("main", func(p *sim.Proc) {
		g.os.Boot(p)
		th := &Thread{OS: g.os, P: p}
		fn(th)
		th.FlushCPU()
		g.os.Shutdown()
	})
	g.env.Run()
}

func TestBootReservesKernel(t *testing.T) {
	g := newGuest(t, 4096, nil)
	g.run(t, func(th *Thread) {})
	if got := g.os.FreePages(); got != 4096-16 {
		t.Fatalf("free = %d, want %d", got, 4096-16)
	}
}

func TestReadFileCachesAndReadsAhead(t *testing.T) {
	g := newGuest(t, 65536, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("data", 1<<20) // 256 blocks
		th.ReadFile(f, 0, 1<<20)
		if g.plat.readPages != 256 {
			t.Errorf("read pages = %d, want 256", g.plat.readPages)
		}
		if g.plat.reads >= 256 {
			t.Errorf("reads = %d: readahead should batch requests", g.plat.reads)
		}
		firstPassReads := g.plat.reads
		// Second pass: fully cached, no I/O.
		th.ReadFile(f, 0, 1<<20)
		if g.plat.reads != firstPassReads {
			t.Errorf("second pass did disk I/O (%d -> %d)", firstPassReads, g.plat.reads)
		}
	})
	if g.os.CachePages() != 256 {
		t.Fatalf("cache = %d pages, want 256", g.os.CachePages())
	}
}

func TestReadaheadWindowGrows(t *testing.T) {
	g := newGuest(t, 65536, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("data", 64*4096)
		th.ReadFile(f, 0, 64*4096)
		// With min 4 doubling to max 32: requests of 4,8,16,32,4... the
		// first few requests must grow.
		if g.plat.reads > 6 {
			t.Errorf("reads = %d; window did not grow", g.plat.reads)
		}
	})
}

func TestWriteFileWholeBlocksAvoidRMW(t *testing.T) {
	g := newGuest(t, 65536, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("out", 1<<20)
		th.WriteFile(f, 0, 64*4096)
		if g.plat.reads != 0 {
			t.Errorf("whole-block writes performed %d reads", g.plat.reads)
		}
		if g.os.DirtyCachePages() != 64 {
			t.Errorf("dirty = %d, want 64", g.os.DirtyCachePages())
		}
		th.Sync(f)
		if g.os.DirtyCachePages() != 0 {
			t.Errorf("dirty after sync = %d", g.os.DirtyCachePages())
		}
		if len(g.plat.writes) == 0 {
			t.Fatal("sync wrote nothing")
		}
		// Contiguous dirty range should coalesce into few write ops.
		if len(g.plat.writes) > 2 {
			t.Errorf("sync used %d writes; should coalesce", len(g.plat.writes))
		}
	})
}

func TestWriteFilePartialBlockDoesRMW(t *testing.T) {
	g := newGuest(t, 65536, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("out", 1<<20)
		th.WriteFile(f, 100, 50) // partial, uncached
		if g.plat.reads != 1 {
			t.Errorf("reads = %d, want 1 (read-modify-write)", g.plat.reads)
		}
		if g.plat.spans != 1 {
			t.Errorf("spans = %d, want 1", g.plat.spans)
		}
	})
}

func TestAnonFirstTouchZeroes(t *testing.T) {
	g := newGuest(t, 65536, nil)
	g.run(t, func(th *Thread) {
		pr := g.os.NewProcess("app")
		pr.Reserve(10)
		before := g.plat.overs
		for i := 0; i < 10; i++ {
			th.TouchAnon(pr, i, true)
		}
		if g.plat.overs-before != 10 {
			t.Errorf("overwrites = %d, want 10 (kernel zeroing)", g.plat.overs-before)
		}
		if pr.Resident() != 10 {
			t.Errorf("resident = %d", pr.Resident())
		}
	})
}

func TestGuestReclaimDropsCleanCacheFirst(t *testing.T) {
	g := newGuest(t, 2048, nil) // 8 MiB guest
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("big", 16<<20) // 4096 blocks > memory
		th.ReadFile(f, 0, 16<<20)
		if g.os.FreePages() == 0 {
			t.Error("reclaim never ran")
		}
		if g.met.Get(metrics.GuestCacheDrops) == 0 {
			t.Error("no cache drops")
		}
		if g.met.Get(metrics.GuestSwapOuts) != 0 {
			t.Error("anon swapped while clean cache was available")
		}
	})
}

func TestGuestSwapsAnonUnderPressure(t *testing.T) {
	g := newGuest(t, 2048, nil)
	g.run(t, func(th *Thread) {
		pr := g.os.NewProcess("hog")
		pr.Reserve(4000)
		for i := 0; i < 4000; i++ {
			th.TouchAnon(pr, i, true)
			if pr.Killed {
				t.Fatalf("OOM killed at %d despite swap space", i)
			}
		}
		if g.met.Get(metrics.GuestSwapOuts) == 0 {
			t.Error("no guest swap-outs")
		}
		// Touch early pages again: must fault back in from guest swap.
		before := g.met.Get(metrics.GuestSwapIns)
		for i := 0; i < 100; i++ {
			th.TouchAnon(pr, i, false)
		}
		if g.met.Get(metrics.GuestSwapIns) == before {
			t.Error("no guest swap-ins on re-touch")
		}
	})
}

func TestOOMKillsLargestProcess(t *testing.T) {
	// The OOM triggers model over-ballooning (paper §2.4), so they only
	// fire in a guest whose balloon pins a meaningful share of memory.
	g := newGuest(t, 2048, func(c *Config) {
		c.OOMLatency = 1 // fire almost immediately once reclaim blocks
	})
	g.run(t, func(th *Thread) {
		g.os.SetBalloonTarget(600)
		for g.os.BalloonPages() < 600 {
			th.P.Sleep(10 * sim.Millisecond)
		}
		small := g.os.NewProcess("small")
		small.Reserve(100)
		for i := 0; i < 100; i++ {
			th.TouchAnon(small, i, true)
		}
		big := g.os.NewProcess("big")
		big.Reserve(4000)
		for i := 0; i < 4000 && !big.Killed; i++ {
			th.TouchAnon(big, i, true)
		}
		if !big.Killed {
			t.Fatal("big process not killed")
		}
		if small.Killed {
			t.Fatal("small process killed instead")
		}
	})
	if g.os.OOMKills() == 0 {
		t.Fatal("OOM kill not recorded")
	}
}

func TestBalloonInflateDeflate(t *testing.T) {
	g := newGuest(t, 8192, nil)
	g.run(t, func(th *Thread) {
		g.os.SetBalloonTarget(1000)
		for g.os.BalloonPages() < 1000 {
			th.P.Sleep(10 * sim.Millisecond)
		}
		if g.plat.balloonIn != 1000 {
			t.Errorf("host saw %d balloon pages", g.plat.balloonIn)
		}
		free := g.os.FreePages()
		g.os.SetBalloonTarget(0)
		for g.os.BalloonPages() > 0 {
			th.P.Sleep(10 * sim.Millisecond)
		}
		if g.plat.balloonIn != 0 {
			t.Errorf("host still holds %d balloon pages", g.plat.balloonIn)
		}
		if g.os.FreePages() <= free {
			t.Error("deflate did not free guest memory")
		}
	})
}

func TestBalloonTargetClamped(t *testing.T) {
	g := newGuest(t, 4096, nil)
	g.os.SetBalloonTarget(4096)
	if g.os.BalloonTarget() >= 4096 {
		t.Fatal("balloon target not clamped below guest size")
	}
}

func TestBalloonInflationForcesReclaim(t *testing.T) {
	g := newGuest(t, 2048, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("data", 6<<20)
		th.ReadFile(f, 0, 6<<20) // fill cache
		cacheBefore := g.os.CachePages()
		g.os.SetBalloonTarget(1500)
		for g.os.BalloonPages() < 1500 {
			th.P.Sleep(10 * sim.Millisecond)
		}
		if g.os.CachePages() >= cacheBefore {
			t.Error("inflation did not shrink the page cache")
		}
	})
}

func TestFreeAnonRecyclesGFN(t *testing.T) {
	g := newGuest(t, 4096, nil)
	g.run(t, func(th *Thread) {
		pr := g.os.NewProcess("app")
		pr.Reserve(2)
		th.TouchAnon(pr, 0, true)
		gfn := pr.slots[0].gfn
		th.FreeAnon(pr, 0)
		if pr.slots[0] != untouchedSlot {
			t.Fatal("slot not freed")
		}
		th.TouchAnon(pr, 1, true)
		if pr.slots[1].gfn != gfn {
			t.Fatalf("LIFO recycling expected: got %d, want %d", pr.slots[1].gfn, gfn)
		}
	})
}

func TestProcessExitFreesEverything(t *testing.T) {
	g := newGuest(t, 2048, nil)
	g.run(t, func(th *Thread) {
		pr := g.os.NewProcess("app")
		pr.Reserve(3000)
		for i := 0; i < 3000 && !pr.Killed; i++ {
			th.TouchAnon(pr, i, true)
		}
		pr.Exit()
		if pr.Resident() != 0 {
			t.Errorf("resident after exit = %d", pr.Resident())
		}
		if g.os.swap.inUse != 0 {
			t.Errorf("guest swap still holds %d slots", g.os.swap.inUse)
		}
	})
}

func TestDirtyThrottleFlushes(t *testing.T) {
	g := newGuest(t, 2048, func(c *Config) { c.DirtyRatioPct = 5 })
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("out", 8<<20)
		th.WriteFile(f, 0, 4<<20) // 1024 dirty pages >> 5% of 2048
		limit := 2048 * 5 / 100
		if g.os.DirtyCachePages() > limit {
			t.Errorf("dirty = %d, throttle limit = %d", g.os.DirtyCachePages(), limit)
		}
	})
}

func TestDropCaches(t *testing.T) {
	g := newGuest(t, 8192, nil)
	g.run(t, func(th *Thread) {
		f := g.os.FS.Create("data", 4<<20)
		th.ReadFile(f, 0, 4<<20)
		if g.os.CachePages() == 0 {
			t.Fatal("setup: nothing cached")
		}
		g.os.DropCaches()
		if g.os.CachePages() != 0 {
			t.Fatalf("cache = %d after drop", g.os.CachePages())
		}
	})
}

func TestVFileBlockRangePanics(t *testing.T) {
	fs := NewFileSystem(1000, 100)
	f := fs.Create("x", 10*4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Block(10)
}

func TestFSDiskFullPanics(t *testing.T) {
	fs := NewFileSystem(100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fs.Create("big", 91*4096)
}

func TestGuestSwapSlotReuse(t *testing.T) {
	gs := newGuestSwap(1000, 8)
	a := gs.alloc()
	b := gs.alloc()
	if a != 0 || b != 1 {
		t.Fatalf("alloc = %d,%d", a, b)
	}
	gs.release(a)
	if got := gs.alloc(); got != 0 {
		t.Fatalf("realloc = %d, want 0", got)
	}
	if gs.block(3) != 1003 {
		t.Fatalf("block translation wrong")
	}
}
