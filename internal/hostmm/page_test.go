package hostmm

import (
	"runtime"
	"testing"
	"unsafe"

	"vswapsim/internal/sim"
)

// TestPageLayout pins the descriptor layout the touch and scan paths rely
// on: every field that VM.TouchPage → Manager.Touch, a mapped write and
// scanList read sits in the first cache line, and the size is a whole
// number of lines so that slab entries stay line-aligned.
func TestPageLayout(t *testing.T) {
	const line = 64
	var pg Page
	if size := unsafe.Sizeof(pg); size%line != 0 {
		t.Errorf("sizeof(Page) = %d, not a multiple of %d", size, line)
	}
	hot := []struct {
		name string
		off  uintptr
	}{
		{"Owner", unsafe.Offsetof(pg.Owner)},
		{"ID", unsafe.Offsetof(pg.ID)},
		{"State", unsafe.Offsetof(pg.State)},
		{"EPT", unsafe.Offsetof(pg.EPT)},
		{"Referenced", unsafe.Offsetof(pg.Referenced)},
		{"Dirty", unsafe.Offsetof(pg.Dirty)},
		{"Pinned", unsafe.Offsetof(pg.Pinned)},
		{"TruthClean", unsafe.Offsetof(pg.TruthClean)},
		{"list", unsafe.Offsetof(pg.list)},
		{"prev", unsafe.Offsetof(pg.prev)},
		{"next", unsafe.Offsetof(pg.next)},
		{"SwapSlot", unsafe.Offsetof(pg.SwapSlot)},
		{"fault", unsafe.Offsetof(pg.fault)},
	}
	for _, f := range hot {
		if f.off >= line {
			t.Errorf("Page.%s at offset %d, outside the first %d-byte line", f.name, f.off, line)
		}
	}
}

// TestCOWBreakZeroAllocs: a COW break leaves its source for reclaim to
// scan as a count, so breaking a private mapping allocates nothing.
func TestCOWBreakZeroAllocs(t *testing.T) {
	r := newRig(t, 1000, 0)
	r.run(t, func(p *sim.Proc) {
		pages := make([]*Page, 64)
		for i := range pages {
			pages[i] = r.mgr.NewFilePage(r.cg, i, BlockRef{File: r.img, Block: int64(i)})
			r.mgr.FileFaultIn(p, pages[i], GuestCtx)
			r.mgr.MinorMap(p, pages[i], GuestCtx)
		}
		i := 0
		cow := func() {
			pg := pages[i%len(pages)]
			i++
			r.mgr.COWBreak(p, pg, GuestCtx)
			r.mgr.AdoptAsNamed(pg, BlockRef{File: r.img, Block: int64(pg.ID)})
		}
		// Warm the lazy pools (event freelist, histogram buckets) before
		// measuring.
		for range pages {
			cow()
		}
		if avg := testing.AllocsPerRun(200, cow); avg != 0 {
			t.Errorf("COW break allocates %.2f objects per break, want 0", avg)
		}
	})
}

// TestPageDescriptorBytes: descriptors are carved from small slabs, so n
// descriptors for one cgroup cost at most n descriptors' bytes plus one
// 128 KiB slab.
func TestPageDescriptorBytes(t *testing.T) {
	const n = 9000
	r := newRig(t, 10, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.mgr.NewPage(r.cg, i)
	}
	runtime.ReadMemStats(&after)
	bound := n*uint64(unsafe.Sizeof(Page{})) + 128<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("%d descriptors allocated %d bytes, want at most %d", n, got, bound)
	}
}
