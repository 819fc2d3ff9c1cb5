package guest

import (
	"fmt"

	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/trace"
)

// takeFree pops a free frame; it must only be called when the free list is
// known non-empty (boot, or after allocPage ensured room).
func (os *OS) takeFree(p *sim.Proc) int32 {
	_ = p
	gfn := os.free.head
	if gfn == nilGFN {
		panic("guest: free list empty")
	}
	os.free.remove(os, gfn)
	return gfn
}

// putFree returns a frame to the allocator. The guest does not (and cannot)
// tell the host: the host still believes the frame's old content matters,
// which is the root of false swap reads.
func (os *OS) putFree(gfn int32) {
	pi := &os.pages[gfn]
	pi.kind = kindFree
	pi.dirty = false
	pi.referenced = false
	pi.block = 0
	os.anonOwner[gfn] = 0
	os.free.pushFront(os, gfn)
}

// allocPage returns a free frame for the calling thread, running direct
// reclaim below the low watermark. It returns -1 only if memory cannot be
// freed at all (after the OOM killer had its say).
func (os *OS) allocPage(t *Thread) int32 {
	if os.free.size <= os.watermarkLow {
		os.directReclaim(t)
	}
	// Emergency: the pool is momentarily empty. Retry with short waits —
	// concurrent writeback or other threads usually free frames — and
	// only OOM-kill if memory is genuinely unobtainable.
	if os.free.size == 0 {
		for attempt := 0; attempt < 8 && os.free.size == 0; attempt++ {
			os.directReclaim(t)
			if os.free.size == 0 {
				t.P.Sleep(10 * sim.Millisecond)
			}
		}
		if os.free.size == 0 {
			os.oomKill()
			if os.free.size == 0 {
				return -1
			}
		}
	}
	return os.takeFree(t.P)
}

// directReclaim frees pages until the high watermark (best effort),
// charging all I/O to the calling thread. If the thread blocks longer than
// Cfg.OOMLatency inside one invocation, the OOM killer fires — the guest
// analogue of "reclaim cannot keep up with demand" (paper §2.3, §2.4).
func (os *OS) directReclaim(t *Thread) {
	start := t.P.Now()
	target := os.watermarkHi - os.free.size
	if target <= 0 {
		return
	}
	freed := 0
	ballooned := len(os.balloonGFNs) > os.Cfg.MemPages/20
	for rounds := 0; freed < target && rounds < 8; rounds++ {
		freeBefore := os.free.size
		n, cheap, io := os.shrinkLists(t, target-freed)
		freed += n
		// Both OOM triggers model over-ballooning (paper §2.4): without
		// pinned balloon pages the kernel thrashes but stays alive, which
		// matches the paper (only balloon configurations were killed).
		if ballooned && t.P.Now().Sub(start) > os.Cfg.OOMLatency {
			os.oomKill()
			return
		}
		if n == 0 {
			break
		}
		// Rounds that mostly progress through swap/writeback I/O while
		// the allocator sits in the emergency zone accumulate; mostly
		// cheap rounds (clean cache drops) reset.
		if cheap > io {
			os.consecIO = 0
		} else if ballooned && freeBefore <= os.watermarkLow {
			os.consecIO++
			if os.Cfg.OOMConsecIO > 0 && os.consecIO >= os.Cfg.OOMConsecIO {
				os.consecIO = 0
				os.oomKill()
				return
			}
		}
	}
}

// wbItem is one page queued for reclaim writeback. Owner and index are
// recorded at queue time so completion can detect pages that vanished
// while the writer was blocked (e.g. freed by an OOM kill).
type wbItem struct {
	gfn   int32
	block int64 // destination vdisk block
	anon  bool
	proc  uint16 // owner's OS.procs index (anon only)
	slot  int32  // guest swap slot (anon only)
	idx   int32  // anon index at queue time
}

// shrinkLists performs one reclaim pass: rebalance active/inactive lists,
// evict from the preferred inactive list, and write dirty victims back in
// contiguous runs. It returns the number of frames freed, and how many of
// them were freed cheaply (clean drops) versus via I/O.
func (os *OS) shrinkLists(t *Thread, target int) (freedN, cheapN, ioN int) {
	freed := 0
	cheap := 0

	rebalance := func(active, inactive *gfnList) {
		for inactive.size < active.size {
			gfn := active.back()
			active.remove(os, gfn)
			os.pages[gfn].referenced = false
			inactive.pushFront(os, gfn)
		}
	}
	rebalance(&os.activeFile, &os.inactiveFile)
	rebalance(&os.activeAnon, &os.inactiveAnon)

	list := &os.inactiveFile
	if list.size <= os.Cfg.MinFileFloor {
		list = &os.inactiveAnon
	}
	if list.size == 0 {
		if list = &os.inactiveFile; list.size == 0 {
			return 0, 0, 0
		}
	}

	bufs := os.getIOBufs()
	writeback := bufs.wb
	batch := 64
	for i := 0; i < batch && freed+len(writeback) < target && list.size > 0; i++ {
		gfn := list.back()
		pi := &os.pages[gfn]
		if pi.referenced {
			pi.referenced = false
			list.rotate(os, gfn)
			continue
		}
		switch pi.kind {
		case kindCache:
			if pi.dirty {
				list.remove(os, gfn)
				writeback = append(writeback, wbItem{gfn: gfn, block: int64(pi.block)})
				continue
			}
			list.remove(os, gfn)
			os.cache.del(int64(pi.block))
			os.putFree(gfn)
			os.c.cacheDrops.Inc()
			freed++
			cheap++
		case kindAnon:
			slot := os.swap.alloc()
			if slot < 0 {
				list.rotate(os, gfn) // guest swap full
				continue
			}
			list.remove(os, gfn)
			writeback = append(writeback, wbItem{
				gfn: gfn, block: os.swap.block(slot), anon: true, slot: slot,
				proc: os.anonOwner[gfn], idx: pi.block,
			})
		default:
			panic(fmt.Sprintf("guest: kind %d on LRU", pi.kind))
		}
	}

	bufs.wb = writeback
	wrote := os.writebackAndFree(t, bufs)
	os.putIOBufs(bufs)
	freed += wrote
	return freed, cheap, wrote
}

// writebackAndFree writes the victims queued in bufs.wb to their vdisk
// blocks in contiguous runs, then releases their frames.
func (os *OS) writebackAndFree(t *Thread, bufs *ioBufs) int {
	items := bufs.wb
	if len(items) == 0 {
		return 0
	}
	start := 0
	for i := 1; i <= len(items); i++ {
		if i < len(items) && items[i].block == items[i-1].block+1 {
			continue
		}
		run := items[start:i]
		gfns := bufs.gfns[:0]
		for _, w := range run {
			gfns = append(gfns, int(w.gfn))
		}
		bufs.gfns = gfns
		os.Plat.DiskWrite(t.P, gfns, run[0].block)
		start = i
	}
	// A queued frame stays off every list until its write completes, so a
	// frame found on a list was freed and reused meanwhile, even if by the
	// very page it held: it belongs to its new owner.
	freed := 0
	for _, w := range items {
		pi := &os.pages[w.gfn]
		if w.anon {
			// The page may have vanished while the write was in flight
			// (freed, or its process OOM-killed): release the now-unused
			// slot.
			pr := os.proc(w.proc)
			if pi.kind != kindAnon || pi.list != listNone || os.anonOwner[w.gfn] != w.proc ||
				pi.block != w.idx || pr.slots[w.idx].gfn != w.gfn {
				os.swap.release(w.slot)
				continue
			}
			s := &pr.slots[w.idx]
			s.slot = w.slot
			s.gfn = nilGFN
			pr.resident--
			os.swap.setOwner(w.slot, w.proc, w.idx)
			os.c.swapOuts.Inc()
		} else {
			if pi.kind != kindCache || pi.list != listNone {
				continue // dropped concurrently
			}
			os.cache.del(int64(pi.block))
			os.dirtyCount--
			os.c.cacheDrops.Inc()
		}
		os.putFree(w.gfn)
		freed++
	}
	return freed
}

// noteThrashIn is the third over-ballooning trigger (paper §2.4, Fig. 5):
// a ballooned guest whose anonymous working set cycles through its own
// swap without forward progress is effectively dead; Ubuntu's OOM and
// low-memory killers fire in this regime. We kill once the swap-ins
// accumulated while the balloon is inflated exceed half the
// balloon-visible memory — a guest that re-read half its visible RAM from
// swap is thrashing, not working.
func (os *OS) noteThrashIn() {
	if len(os.balloonGFNs) <= os.Cfg.MemPages/20 {
		os.thrashIns = 0
		return
	}
	os.thrashIns++
	visible := os.Cfg.MemPages - len(os.balloonGFNs)
	if os.thrashIns > visible/2 {
		os.thrashIns = 0
		os.oomKill()
	}
}

// oomKill terminates the process with the largest anonymous footprint,
// freeing its memory.
func (os *OS) oomKill() {
	var victim *Process
	for _, pr := range os.procs {
		if pr.Killed {
			continue
		}
		if victim == nil || pr.Footprint() > victim.Footprint() {
			victim = pr
		}
	}
	if victim == nil || victim.Footprint() == 0 {
		return
	}
	os.oomKills++
	os.Met.Inc(metrics.GuestOOMKills)
	if os.Trace.Recording(trace.OOM) {
		os.Trace.Add(os.Env.Now(), trace.OOM, "kill %s footprint=%d free=%d balloon=%d",
			victim.Name, victim.Footprint(), os.free.size, len(os.balloonGFNs))
	}
	victim.Killed = true
	os.releaseProcessMemory(victim)
}

// releaseProcessMemory frees every resident page and swap slot of pr.
func (os *OS) releaseProcessMemory(pr *Process) {
	for i := range pr.slots {
		os.releaseAnon(pr, &pr.slots[i])
	}
}

func (os *OS) listByID(id uint8) *gfnList {
	switch id {
	case listActiveFile:
		return &os.activeFile
	case listInactiveFile:
		return &os.inactiveFile
	case listActiveAnon:
		return &os.activeAnon
	case listInactiveAnon:
		return &os.inactiveAnon
	}
	panic("guest: bad list id")
}

// touchLRU implements two-touch promotion like the host.
func (os *OS) touchLRU(gfn int32) {
	pi := &os.pages[gfn]
	if !pi.referenced {
		pi.referenced = true
		return
	}
	switch pi.list {
	case listInactiveFile:
		os.inactiveFile.remove(os, gfn)
		os.activeFile.pushFront(os, gfn)
	case listInactiveAnon:
		os.inactiveAnon.remove(os, gfn)
		os.activeAnon.pushFront(os, gfn)
	}
}
