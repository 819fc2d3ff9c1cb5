package guest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestGuestFrameLayout pins the per-frame and per-anon-page layouts: a
// frame entry is 16 bytes and an anon slot and a swap owner 8, and none of
// them holds a Go pointer, so that the garbage collector never scans the
// arrays that hold them.
func TestGuestFrameLayout(t *testing.T) {
	if size := unsafe.Sizeof(pageInfo{}); size != 16 {
		t.Errorf("sizeof(pageInfo) = %d, want 16", size)
	}
	if size := unsafe.Sizeof(anonSlot{}); size != 8 {
		t.Errorf("sizeof(anonSlot) = %d, want 8", size)
	}
	if size := unsafe.Sizeof(swapOwner{}); size != 8 {
		t.Errorf("sizeof(swapOwner) = %d, want 8", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(pageInfo{}), reflect.TypeOf(anonSlot{}), reflect.TypeOf(swapOwner{})} {
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

// TestFreeListOrder: a fresh OS hands out GFNs 0, 1, 2, …, and the frame
// putFree returns last is the next one handed out. Every simulated output
// depends on this order, since it decides which GFN, and so which host
// descriptor, each allocation gets.
func TestFreeListOrder(t *testing.T) {
	g := newGuest(t, 64, nil)
	os := g.os
	for want := int32(0); want < 8; want++ {
		if got := os.takeFree(nil); got != want {
			t.Fatalf("fresh OS handed out GFN %d, want %d", got, want)
		}
	}
	os.putFree(3)
	os.putFree(5)
	for _, want := range []int32{5, 3, 8} {
		if got := os.takeFree(nil); got != want {
			t.Fatalf("after freeing 3 then 5, handed out GFN %d, want %d", got, want)
		}
	}
	if got := os.FreePages(); got != 64-9 {
		t.Fatalf("free = %d, want %d", got, 64-9)
	}
}

// mustPanicWith runs f and fails unless it panics with a message that
// contains want.
func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want a message naming %s", r, want)
		}
	}()
	f()
}

func TestNewFileSystemRejectsDiskPastInt32(t *testing.T) {
	mustPanicWith(t, "2147483648 blocks", func() { NewFileSystem(math.MaxInt32+1, 1<<15) })
}

// TestReserveRejectsAnonIndexPastInt32: the range is checked before the
// slot slice grows, so the test allocates no slots.
func TestReserveRejectsAnonIndexPastInt32(t *testing.T) {
	g := newGuest(t, 64, nil)
	pr := g.os.NewProcess("app")
	pr.Reserve(16)
	mustPanicWith(t, "reserving 2147483632 anon pages after 16", func() { pr.Reserve(math.MaxInt32 - 15) })
	if len(pr.slots) != 16 {
		t.Fatalf("slots = %d after the refused Reserve, want 16", len(pr.slots))
	}
}

// TestNewProcessRejectsIndexPastUint16: NewProcess starts no goroutine,
// so filling the owner index range makes only Process values.
func TestNewProcessRejectsIndexPastUint16(t *testing.T) {
	g := newGuest(t, 64, nil)
	for i := 0; i < math.MaxUint16; i++ {
		g.os.NewProcess("p")
	}
	mustPanicWith(t, "number 65536", func() { g.os.NewProcess("one-too-many") })
}

// TestWritebackLeavesReboundFrame: reclaim queues an anon page for
// writeback and blocks in the disk write; meanwhile its process frees the
// page and touches it again, which binds the same frame (the free list
// hands back the frame freed last) to the same page. The completion must
// see that the frame was reused, since a queued frame is on no list until
// its write completes, and leave it resident with its new owner.
func TestWritebackLeavesReboundFrame(t *testing.T) {
	g := newGuest(t, 2048, nil)
	os := g.os
	g.run(t, func(th *Thread) {
		pr := os.NewProcess("app")
		pr.Reserve(1000)
		for i := 0; i < 1000; i++ {
			th.TouchAnon(pr, i, true)
		}
		for i := range os.pages {
			os.pages[i].referenced = false
		}
		os.Go("reclaim", nil, func(rt *Thread) { os.shrinkLists(rt, 8) })
		th.P.Sleep(g.plat.diskLat / 2) // the reclaimer is now inside DiskWrite
		idx := -1
		for i := range pr.slots {
			if s := pr.slots[i]; s.resident() && os.pages[s.gfn].list == listNone {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatal("reclaim queued no anon page for writeback")
		}
		gfn := pr.slots[idx].gfn
		th.FreeAnon(pr, idx)
		th.TouchAnon(pr, idx, true)
		if got := pr.slots[idx].gfn; got != gfn {
			t.Fatalf("re-touch bound GFN %d, want the freed GFN %d", got, gfn)
		}
		th.P.Sleep(4 * g.plat.diskLat) // the write completes
		s, pi := pr.slots[idx], os.pages[gfn]
		if !s.resident() || s.gfn != gfn || pi.kind != kindAnon ||
			(pi.list != listActiveAnon && pi.list != listInactiveAnon) {
			t.Fatalf("after the write, page %d is %+v and its frame %+v: want it resident on an anon list", idx, s, pi)
		}
	})
}
