package guest

import (
	"fmt"
	"slices"
)

// anon page states
const (
	anonNone = iota
	anonResident
	anonSwapped
)

// anonSlot is one virtual page of a process's anonymous memory.
type anonSlot struct {
	state uint8
	gfn   int32
	slot  int64 // guest swap slot when swapped
}

// Process is a guest user process: a bag of anonymous pages plus a kill
// flag set by the OOM killer. File I/O goes through the shared page cache,
// so the process itself only tracks anonymous memory.
type Process struct {
	Name     string
	OS       *OS
	Killed   bool
	slots    []anonSlot
	resident int
}

// NewProcess registers a process with the OS.
func (os *OS) NewProcess(name string) *Process {
	pr := &Process{Name: name, OS: os}
	os.procs = append(os.procs, pr)
	return pr
}

// Reserve extends the process's virtual address space by n pages (like
// brk/mmap: no frames are allocated until first touch).
func (pr *Process) Reserve(n int) (firstIdx int) {
	firstIdx = len(pr.slots)
	pr.slots = slices.Grow(pr.slots, n)
	for i := 0; i < n; i++ {
		pr.slots = append(pr.slots, anonSlot{state: anonNone, gfn: nilGFN, slot: -1})
	}
	return firstIdx
}

// Resident reports resident anonymous pages.
func (pr *Process) Resident() int { return pr.resident }

// Footprint is the OOM badness: resident plus swapped pages.
func (pr *Process) Footprint() int {
	swapped := 0
	for i := range pr.slots {
		if pr.slots[i].state == anonSwapped {
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
	switch s.state {
	case anonResident:
		os.touchLRU(s.gfn)
		os.Plat.TouchPage(t.P, int(s.gfn), write)
	case anonNone:
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
	case anonSwapped:
		os.guestSwapIn(t, pr, idx)
		if pr.Killed {
			return
		}
		if s.state == anonResident && write {
			os.Plat.TouchPage(t.P, int(s.gfn), true)
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
	if gfn < 0 || pr.Killed || s.state != anonSwapped {
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
		if ow.pr == nil || ow.pr.Killed || ow.pr.slots[ow.idx].state != anonSwapped ||
			ow.pr.slots[ow.idx].slot != next {
			break
		}
		if os.freePool <= os.watermarkLow {
			break // opportunistic only: never reclaim for readahead
		}
		g2 := os.takeFree(t.P)
		os.bindAnon(ow.pr, ow.idx, g2)
		os.pages[g2].referenced = false // prefetched, not yet used
		gfns = append(gfns, int(g2))
	}

	// One virtio read for the whole cluster; the DMA overwrites frames.
	os.Plat.DiskRead(t.P, gfns, os.swap.block(slot))
	os.swap.release(slot)
	for next := slot + 1; next < slot+int64(len(gfns)); next++ {
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
	switch s.state {
	case anonResident:
		os.touchLRU(s.gfn)
		os.Plat.WriteSpan(t.P, int(s.gfn), off, n)
	case anonNone:
		gfn := os.allocPage(t)
		if gfn < 0 {
			return
		}
		os.bindAnon(pr, idx, gfn)
		os.Plat.OverwritePage(t.P, int(gfn), true) // kernel zeroing
		os.Plat.WriteSpan(t.P, int(gfn), off, n)
	case anonSwapped:
		t.TouchAnon(pr, idx, false) // fault in via guest swap
		if pr.Killed {
			return
		}
		s = &pr.slots[idx]
		if s.state == anonResident {
			os.Plat.WriteSpan(t.P, int(s.gfn), off, n)
		}
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
	switch s.state {
	case anonResident:
		os.touchLRU(s.gfn)
		os.Plat.OverwritePage(t.P, int(s.gfn), rep)
	case anonNone:
		gfn := os.allocPage(t)
		if gfn < 0 {
			return
		}
		os.bindAnon(pr, idx, gfn)
		os.Plat.OverwritePage(t.P, int(gfn), rep)
	case anonSwapped:
		// The guest still faults the page from its own swap (it cannot
		// know the caller will ignore the content), then overwrites.
		t.TouchAnon(pr, idx, false)
		if pr.Killed {
			return
		}
		s = &pr.slots[idx]
		if s.state == anonResident {
			os.Plat.OverwritePage(t.P, int(s.gfn), rep)
		}
	}
	t.Compute(os.Cfg.PerPageCost)
}

// FreeAnon releases one anonymous page back to the guest allocator (e.g.
// a freed heap chunk); the host is not informed.
func (t *Thread) FreeAnon(pr *Process, idx int) {
	os := t.OS
	s := &pr.slots[idx]
	switch s.state {
	case anonResident:
		pi := &os.pages[s.gfn]
		if pi.list != listNone {
			os.listByID(pi.list).remove(os, s.gfn)
		}
		os.putFree(s.gfn)
		pr.resident--
	case anonSwapped:
		os.swap.release(s.slot)
	}
	s.state = anonNone
	s.gfn = nilGFN
	s.slot = -1
}

// bindAnon wires a frame to a process page and puts it on the anon LRU.
func (os *OS) bindAnon(pr *Process, idx int, gfn int32) {
	pi := &os.pages[gfn]
	pi.kind = kindAnon
	pi.proc = pr
	pi.block = int64(idx)
	pi.referenced = true
	pi.dirty = true
	os.activeAnon.pushFront(os, gfn)
	s := &pr.slots[idx]
	s.state = anonResident
	s.gfn = gfn
	s.slot = -1
	pr.resident++
}
