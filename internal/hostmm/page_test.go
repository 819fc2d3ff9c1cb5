package hostmm

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"vswapsim/internal/sim"
)

// TestPageLayout pins the descriptor layout: one 64-byte cache line, so
// that slab entries stay line-aligned and a touch or a scan loads one line
// per page, and no Go pointers in a descriptor or a swap owner chunk, so
// that the garbage collector never scans them.
func TestPageLayout(t *testing.T) {
	if size := unsafe.Sizeof(Page{}); size != 64 {
		t.Errorf("sizeof(Page) = %d, want 64", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Page{}), reflect.TypeOf(slotChunk{}), reflect.TypeOf(mapChunk{})} {
		if path := pointerPath(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer-bearing field: %s", typ.Name(), path)
		}
	}
}

// pointerPath returns the path to the first pointer-bearing part of typ, or
// "" if it has none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.String, reflect.UnsafePointer:
		return path + " (" + typ.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestPageIndexRoundTrip: an index resolves to the descriptor that reports
// it, across slab boundaries, and each manager resolves only its own.
func TestPageIndexRoundTrip(t *testing.T) {
	a, b := newRig(t, 10, 0), newRig(t, 10, 0)
	var pa, pb []*Page
	for i := 0; i < 2*slabPages; i++ {
		pa = append(pa, a.mgr.NewPage(a.cg, i))
		pb = append(pb, b.mgr.NewPage(b.cg, -i))
	}
	for _, idx := range []uint32{1, slabPages - 1, slabPages, slabPages + 1, 2 * slabPages} {
		pg := a.mgr.Page(idx)
		if pg != pa[idx-1] || pg.Index() != idx || pg.ID != int32(idx-1) {
			t.Fatalf("manager a: Page(%d) = %p, want %p with index %d", idx, pg, pa[idx-1], idx)
		}
		if other := b.mgr.Page(idx); other == pg || other != pb[idx-1] || other.ID != -int32(idx-1) {
			t.Fatalf("manager b: Page(%d) resolves to %p, want its own descriptor %p", idx, other, pb[idx-1])
		}
	}
	if a.mgr.Page(0) != nil || a.mgr.Page(2*slabPages+1) != nil {
		t.Fatal("index 0 and indices past the last descriptor must resolve to nil")
	}
	if n := a.mgr.NumPages(); n != 2*slabPages+1 {
		t.Fatalf("NumPages = %d, want %d (the descriptors plus reserved index 0)", n, 2*slabPages+1)
	}
}

// TestCOWBreakZeroAllocs: a COW break leaves its source for reclaim to
// scan as a count, so breaking a private mapping allocates nothing.
func TestCOWBreakZeroAllocs(t *testing.T) {
	r := newRig(t, 1000, 0)
	r.run(t, func(p *sim.Proc) {
		pages := make([]*Page, 64)
		for i := range pages {
			pages[i] = r.mgr.NewFilePage(r.cg, i, r.img.Ref(int64(i)))
			r.mgr.FileFaultIn(p, pages[i], GuestCtx)
			r.mgr.MinorMap(p, pages[i], GuestCtx)
		}
		i := 0
		cow := func() {
			pg := pages[i%len(pages)]
			i++
			r.mgr.COWBreak(p, pg, GuestCtx)
			r.mgr.AdoptAsNamed(pg, r.img.Ref(int64(pg.ID)))
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
// 64 KiB slab.
func TestPageDescriptorBytes(t *testing.T) {
	const n = 9000
	r := newRig(t, 10, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.mgr.NewPage(r.cg, i)
	}
	runtime.ReadMemStats(&after)
	bound := n*uint64(unsafe.Sizeof(Page{})) + slabPages*uint64(unsafe.Sizeof(Page{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("%d descriptors allocated %d bytes, want at most %d", n, got, bound)
	}
}
