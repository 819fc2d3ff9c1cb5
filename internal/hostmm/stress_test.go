package hostmm

import (
	"testing"
	"testing/quick"

	"vswapsim/internal/disk"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// TestRandomOpsPreserveInvariants drives a random mix of MM operations and
// audits the manager's bookkeeping afterwards.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		seed := seed
		env := sim.NewEnv(seed)
		met := metrics.NewSet()
		model := disk.Constellation7200()
		dev := disk.NewDevice(env, model, met)
		layout := disk.NewLayout(model.TotalBlocks)
		imgRegion := layout.Reserve("img", 1<<16)
		swap := NewSwapArea(layout.Reserve("swap", 1<<14))
		pool := mem.NewFramePool(96)
		mgr := NewManager(env, met, dev, pool, swap, Config{})
		img := mgr.NewFile("img", imgRegion)
		cgA := mgr.NewCgroup("a", 48)
		cgB := mgr.NewCgroup("b", 0) // pool-bound

		const nPages = 256
		pages := make([]*Page, nPages)
		for i := range pages {
			cg := cgA
			if i%2 == 1 {
				cg = cgB
			}
			if i%5 == 0 {
				pages[i] = mgr.NewFilePage(cg, i, img.Ref(int64(i)))
			} else {
				pages[i] = mgr.NewPage(cg, i)
			}
		}

		env.Go("stress", func(p *sim.Proc) {
			rng := env.Rand()
			for op := 0; op < 4000; op++ {
				pg := pages[rng.Intn(nPages)]
				switch pg.State {
				case Untouched, Ballooned:
					if rng.Intn(4) == 0 && pg.State == Ballooned {
						mgr.BalloonReturn(pg)
					} else {
						mgr.FirstTouch(p, pg, GuestCtx)
					}
				case ResidentAnon:
					switch rng.Intn(5) {
					case 0:
						mgr.MinorMap(p, pg, GuestCtx)
					case 1:
						mgr.BalloonTake(pg)
					case 2:
						mgr.AdoptAsNamed(pg, img.Ref(int64(rng.Intn(1<<10))))
					default:
						mgr.Touch(pg)
					}
				case ResidentFile:
					switch rng.Intn(4) {
					case 0:
						mgr.COWBreak(p, pg, GuestCtx)
					case 1:
						mgr.MinorMap(p, pg, GuestCtx)
					default:
						mgr.Touch(pg)
					}
				case SwappedOut:
					switch rng.Intn(4) {
					case 0:
						mgr.BalloonTake(pg)
					case 1:
						mgr.MapOver(p, pg, img.Ref(int64(rng.Intn(1<<10))))
					default:
						mgr.SwapIn(p, pg, GuestCtx)
						mgr.MinorMap(p, pg, GuestCtx)
					}
				case FileNonResident:
					switch rng.Intn(3) {
					case 0:
						mgr.BalloonTake(pg)
					default:
						mgr.FileFaultIn(p, pg, GuestCtx)
						mgr.MinorMap(p, pg, GuestCtx)
					}
				}
			}
		})
		env.Run()

		if err := mgr.Audit(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestConcurrentFaultStorm hammers the same small page set from many
// processes to exercise fault locking, prefetch races and pinning.
func TestConcurrentFaultStorm(t *testing.T) {
	env := sim.NewEnv(99)
	met := metrics.NewSet()
	model := disk.Constellation7200()
	dev := disk.NewDevice(env, model, met)
	layout := disk.NewLayout(model.TotalBlocks)
	swap := NewSwapArea(layout.Reserve("swap", 1<<14))
	pool := mem.NewFramePool(1 << 12)
	mgr := NewManager(env, met, dev, pool, swap, Config{})
	cg := mgr.NewCgroup("vm", 64)

	const nPages = 512
	pages := make([]*Page, nPages)
	for i := range pages {
		pages[i] = mgr.NewPage(cg, i)
	}

	for w := 0; w < 8; w++ {
		w := w
		env.Go("storm", func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(w) + 1)
			for op := 0; op < 1500; op++ {
				pg := pages[rng.Intn(nPages)]
				switch pg.State {
				case Untouched:
					mgr.FirstTouch(p, pg, GuestCtx)
				case ResidentAnon:
					mgr.MinorMap(p, pg, GuestCtx)
				case SwappedOut:
					mgr.SwapIn(p, pg, GuestCtx)
					if pg.State.Resident() {
						mgr.MinorMap(p, pg, GuestCtx)
					}
				}
			}
		})
	}
	env.Run()
	if err := mgr.Audit(); err != nil {
		t.Fatal(err)
	}
	if cg.Resident() > 64 {
		t.Fatalf("limit exceeded: %d", cg.Resident())
	}
}

// TestSwapAreaAllocFreeProperty checks allocator consistency under random
// alloc/free sequences.
func TestSwapAreaAllocFreeProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		env := sim.NewEnv(seed)
		_ = env
		layout := disk.NewLayout(1 << 20)
		s := NewSwapArea(layout.Reserve("swap", 600))
		met := metrics.NewSet()
		dev := disk.NewDevice(sim.NewEnv(1), disk.Constellation7200(), met)
		pool := mem.NewFramePool(8)
		mgr := NewManager(sim.NewEnv(2), met, dev, pool, s, Config{})
		cg := mgr.NewCgroup("x", 0)
		pg := mgr.NewPage(cg, 0)

		rng := sim.NewRNG(seed)
		var held []int64
		for op := 0; op < int(opsRaw)+50; op++ {
			if len(held) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(held))
				s.Free(held[i])
				held = append(held[:i], held[i+1:]...)
			} else {
				slot := s.Alloc(pg)
				if slot < 0 {
					continue
				}
				for _, h := range held {
					if h == slot {
						return false // double allocation
					}
				}
				held = append(held, slot)
			}
		}
		return s.InUse() == len(held)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
