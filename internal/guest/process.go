package guest

import (
	"fmt"
	"math"
	"slices"
)

// anonSlot is one virtual page of a process's anonymous memory. It is
// resident when gfn is a frame, swapped when slot is a guest swap slot,
// and untouched when it is neither.
type anonSlot struct {
	gfn  int32
	slot int32
}

// untouchedSlot is an anon page with neither a frame nor a swap slot.
var untouchedSlot = anonSlot{gfn: nilGFN, slot: -1}

func (s *anonSlot) resident() bool { return s.gfn != nilGFN }
func (s *anonSlot) swapped() bool  { return s.slot >= 0 }

// Process is a guest user process: a bag of anonymous pages plus a kill
// flag set by the OOM killer. File I/O goes through the shared page cache,
// so the process itself only tracks anonymous memory.
type Process struct {
	Name   string
	OS     *OS
	Killed bool
	// idx is the process's 1-based position in OS.procs, which frames and
	// swap slots record as their owner.
	idx      uint16
	slots    []anonSlot
	resident int
}

// NewProcess registers a process with the OS.
func (os *OS) NewProcess(name string) *Process {
	n := len(os.procs) + 1
	if n > math.MaxUint16 {
		panic(fmt.Sprintf("guest: process %q would be number %d, past the %d an owner index holds",
			name, n, math.MaxUint16))
	}
	pr := &Process{Name: name, OS: os, idx: uint16(n)}
	os.procs = append(os.procs, pr)
	return pr
}

// proc resolves an owner index; 0 is no process.
func (os *OS) proc(idx uint16) *Process {
	if idx == 0 {
		return nil
	}
	return os.procs[idx-1]
}

// Reserve extends the process's virtual address space by n pages (like
// brk/mmap: no frames are allocated until first touch).
func (pr *Process) Reserve(n int) (firstIdx int) {
	firstIdx = len(pr.slots)
	if n > math.MaxInt32-firstIdx {
		panic(fmt.Sprintf("guest: reserving %d anon pages after %d exceeds the %d an anon index holds",
			n, firstIdx, math.MaxInt32))
	}
	pr.slots = slices.Grow(pr.slots, n)
	for i := 0; i < n; i++ {
		pr.slots = append(pr.slots, untouchedSlot)
	}
	return firstIdx
}

// Resident reports resident anonymous pages.
func (pr *Process) Resident() int { return pr.resident }

// Footprint is the OOM badness: resident plus swapped pages.
func (pr *Process) Footprint() int {
	swapped := 0
	for i := range pr.slots {
		if pr.slots[i].swapped() {
			swapped++
		}
	}
	return pr.resident + swapped
}

// Exit frees all memory of the process.
func (pr *Process) Exit() {
	pr.OS.releaseProcessMemory(pr)
}

// TouchAnon accesses anonymous page idx. First touch allocates and zeroes
// a fresh frame (a full-page REP overwrite — the kernel's clear_page); a
// swapped page incurs a guest major fault read from the guest swap
// partition.
func (t *Thread) TouchAnon(pr *Process, idx int, write bool) {
	os := t.OS
	if idx < 0 || idx >= len(pr.slots) {
		panic(fmt.Sprintf("guest: anon index %d out of range", idx))
	}
	s := &pr.slots[idx]
	switch {
	case s.resident():
		os.touchLRU(s.gfn)
		os.Plat.TouchPage(t.P, int(s.gfn), write)
	case s.swapped():
		os.guestSwapIn(t, pr, idx)
		if pr.Killed {
			return
		}
		if s.resident() && write {
			os.Plat.TouchPage(t.P, int(s.gfn), true)
		}
	default:
		gfn := os.allocPage(t)
		if gfn < 0 || pr.Killed {
			if gfn >= 0 {
				os.putFree(gfn)
			}
			return // allocation failed or process OOM-killed meanwhile
		}
		os.bindAnon(pr, idx, gfn)
		// Kernel zeroing of the new page: REP string store.
		os.Plat.OverwritePage(t.P, int(gfn), true)
		if write {
			os.Plat.TouchPage(t.P, int(gfn), true)
		}
	}
	t.Compute(os.Cfg.PerPageCost)
}

// guestSwapIn services a guest major fault on anonymous page idx of pr,
// reading a cluster of up to swapReadahead contiguous slots in one virtio
// request (guest swap readahead, like the host's).
const swapReadahead = 8

func (os *OS) guestSwapIn(t *Thread, pr *Process, idx int) {
	s := &pr.slots[idx]
	gfn := os.allocPage(t)
	// The allocation may have blocked in reclaim, during which the OOM
	// killer can tear this very process down: re-validate.
	if gfn < 0 || pr.Killed || !s.swapped() {
		if gfn >= 0 {
			os.putFree(gfn)
		}
		return
	}
	slot := s.slot
	os.bindAnon(pr, idx, gfn)

	// Extend the read over contiguous allocated slots whose pages are
	// still swapped; allocate their frames without forcing reclaim.
	// gfns[k] receives slot+k.
	bufs := os.getIOBufs()
	gfns := append(bufs.gfns, int(gfn))
	for next := slot + 1; next < slot+swapReadahead; next++ {
		ow := os.swap.ownerAt(next)
		opr := os.proc(ow.proc)
		// The owner's page is still swapped out here only if its anon
		// slot still records this swap slot.
		if opr == nil || opr.Killed || opr.slots[ow.idx].slot != next {
			break
		}
		if os.free.size <= os.watermarkLow {
			break // opportunistic only: never reclaim for readahead
		}
		g2 := os.takeFree(t.P)
		os.bindAnon(opr, int(ow.idx), g2)
		os.pages[g2].referenced = false // prefetched, not yet used
		gfns = append(gfns, int(g2))
	}

	// One virtio read for the whole cluster; the DMA overwrites frames.
	os.Plat.DiskRead(t.P, gfns, os.swap.block(slot))
	os.swap.release(slot)
	for next := slot + 1; next < slot+int32(len(gfns)); next++ {
		os.swap.release(next)
		os.c.swapIns.Inc()
		os.noteThrashIn() // prefetched working-set pages count as thrash
	}
	bufs.gfns = gfns
	os.putIOBufs(bufs)
	os.c.swapIns.Inc()
	os.c.majorFaults.Inc()
	os.noteThrashIn()
}

// WriteAnonSpan writes n bytes at offset off into anonymous page idx —
// the access pattern of user code filling buffers, which exercises the
// Preventer's byte-granular emulation when the frame is host-swapped.
func (t *Thread) WriteAnonSpan(pr *Process, idx, off, n int) {
	os := t.OS
	s := &pr.slots[idx]
	switch {
	case s.resident():
		os.touchLRU(s.gfn)
		os.Plat.WriteSpan(t.P, int(s.gfn), off, n)
	case s.swapped():
		t.TouchAnon(pr, idx, false) // fault in via guest swap
		if pr.Killed {
			return
		}
		s = &pr.slots[idx]
		if s.resident() {
			os.Plat.WriteSpan(t.P, int(s.gfn), off, n)
		}
	default:
		gfn := os.allocPage(t)
		if gfn < 0 {
			return
		}
		os.bindAnon(pr, idx, gfn)
		os.Plat.OverwritePage(t.P, int(gfn), true) // kernel zeroing
		os.Plat.WriteSpan(t.P, int(gfn), off, n)
	}
	t.Compute(os.Cfg.PerPageCost)
}

// OverwriteAnon overwrites the whole page ignoring old content (memset or
// page-sized memcpy destination). On a host-swapped frame this is exactly
// the "false read" trigger: the guest knows the old bytes are garbage but
// the host does not.
func (t *Thread) OverwriteAnon(pr *Process, idx int, rep bool) {
	os := t.OS
	s := &pr.slots[idx]
	switch {
	case s.resident():
		os.touchLRU(s.gfn)
		os.Plat.OverwritePage(t.P, int(s.gfn), rep)
	case s.swapped():
		// The guest still faults the page from its own swap (it cannot
		// know the caller will ignore the content), then overwrites.
		t.TouchAnon(pr, idx, false)
		if pr.Killed {
			return
		}
		s = &pr.slots[idx]
		if s.resident() {
			os.Plat.OverwritePage(t.P, int(s.gfn), rep)
		}
	default:
		gfn := os.allocPage(t)
		if gfn < 0 {
			return
		}
		os.bindAnon(pr, idx, gfn)
		os.Plat.OverwritePage(t.P, int(gfn), rep)
	}
	t.Compute(os.Cfg.PerPageCost)
}

// FreeAnon releases one anonymous page back to the guest allocator (e.g.
// a freed heap chunk); the host is not informed.
func (t *Thread) FreeAnon(pr *Process, idx int) {
	t.OS.releaseAnon(pr, &pr.slots[idx])
}

// releaseAnon frees the frame or the swap slot of pr's page s and leaves
// the page untouched.
func (os *OS) releaseAnon(pr *Process, s *anonSlot) {
	switch {
	case s.resident():
		pi := &os.pages[s.gfn]
		if pi.list != listNone {
			os.listByID(pi.list).remove(os, s.gfn)
		}
		os.putFree(s.gfn)
		pr.resident--
	case s.swapped():
		os.swap.release(s.slot)
	}
	*s = untouchedSlot
}

// bindAnon wires a frame to a process page and puts it on the anon LRU.
func (os *OS) bindAnon(pr *Process, idx int, gfn int32) {
	pi := &os.pages[gfn]
	pi.kind = kindAnon
	pi.block = int32(idx)
	pi.referenced = true
	pi.dirty = true
	os.anonOwner[gfn] = pr.idx
	os.activeAnon.pushFront(os, gfn)
	pr.slots[idx] = anonSlot{gfn: gfn, slot: -1}
	pr.resident++
}
