package hyper

import (
	"fmt"

	"vswapsim/internal/disk"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// This file implements guest.Platform: the paths by which guest activity
// reaches the host — memory accesses (EPT) and virtio disk emulation.

// access describes one trapped guest memory access for the fault path.
type access struct {
	write bool
	off   int
	n     int
	rep   bool // full-page string instruction
	full  bool // guaranteed whole-page overwrite
}

// TouchPage is an ordinary guest read or write of one page.
func (vm *VM) TouchPage(p *sim.Proc, gfn int, write bool) {
	pg := vm.page(gfn)
	if pg.EPT {
		if write && pg.State == hostmm.ResidentFile {
			// Named pages are mapped read-only (private COW).
			vm.M.MM.COWBreak(p, pg, hostmm.GuestCtx)
			return
		}
		vm.M.MM.Touch(pg)
		if write {
			vm.markWrite(pg)
		}
		return
	}
	// Model a partial write as a mid-page span so the Preventer correctly
	// declines to emulate it (old content is genuinely needed).
	vm.eptFault(p, pg, access{write: write, off: mem.PageSize / 2, n: 64})
}

// OverwritePage is a whole-page overwrite that ignores old content.
func (vm *VM) OverwritePage(p *sim.Proc, gfn int, rep bool) {
	pg := vm.page(gfn)
	if pg.EPT {
		if pg.State == hostmm.ResidentFile {
			vm.M.MM.COWBreak(p, pg, hostmm.GuestCtx)
			return
		}
		vm.M.MM.Touch(pg)
		vm.markWrite(pg)
		return
	}
	vm.eptFault(p, pg, access{write: true, off: 0, n: mem.PageSize, rep: rep, full: true})
}

// WriteSpan writes n bytes at off within the page.
func (vm *VM) WriteSpan(p *sim.Proc, gfn int, off, n int) {
	pg := vm.page(gfn)
	if pg.EPT {
		if pg.State == hostmm.ResidentFile {
			vm.M.MM.COWBreak(p, pg, hostmm.GuestCtx)
			return
		}
		vm.M.MM.Touch(pg)
		vm.markWrite(pg)
		return
	}
	vm.eptFault(p, pg, access{write: true, off: off, n: n})
}

// markWrite updates host dirty tracking (when hardware supports it) and
// simulator ground truth on a mapped write.
func (vm *VM) markWrite(pg *hostmm.Page) {
	if vm.M.MM.Cfg.EPTDirtyBits {
		vm.M.MM.MarkWritten(pg)
	} else {
		pg.TruthClean = false
	}
}

// eptFault resolves a guest access to a non-present GPA⇒HPA entry. It
// loops because concurrent faults (multiple guest threads) and reclaim can
// change a page's state across the blocking points: each pass re-dispatches
// on the state it observes.
func (vm *VM) eptFault(p *sim.Proc, pg *hostmm.Page, a access) {
	if vm.faultLock != nil {
		vm.faultLock.Acquire(p)
		defer vm.faultLock.Release()
	}
	mm := vm.M.MM
	falseReadCounted := false
	for tries := 0; ; tries++ {
		if tries > 64 {
			panic(fmt.Sprintf("hyper: fault livelock on gfn %d (%s)", pg.ID, pg.State))
		}
		switch pg.State {
		case hostmm.Untouched, hostmm.Ballooned:
			mm.FirstTouch(p, pg, hostmm.GuestCtx)
			if !pg.EPT {
				continue // lost a race; resolve against the new state
			}

		case hostmm.ResidentAnon, hostmm.ResidentFile:
			mm.MinorMap(p, pg, hostmm.GuestCtx)
			if a.write && pg.State == hostmm.ResidentFile {
				mm.COWBreak(p, pg, hostmm.GuestCtx)
			}

		case hostmm.Emulated:
			vm.Preventer.OnAccess(p, pg, a.write, a.off, a.n, a.rep)
			if a.write && pg.State != hostmm.Emulated {
				vm.markWrite(pg)
			}
			return

		case hostmm.SwappedOut, hostmm.FileNonResident:
			if a.write && vm.Preventer != nil &&
				vm.Preventer.HandleWriteFault(p, pg, a.off, a.n, a.rep) {
				return
			}
			if a.write && a.full && !falseReadCounted {
				// The old content is about to be wholly overwritten, yet
				// the host is going to read it: a false swap read.
				vm.M.Met.Inc(metrics.FalseSwapReads)
				falseReadCounted = true
			}
			vm.touchText(p, vm.Cfg.TextTouchesPerFault)
			if pg.State == hostmm.SwappedOut {
				mm.SwapIn(p, pg, hostmm.GuestCtx)
			} else if pg.State == hostmm.FileNonResident {
				mm.FileFaultIn(p, pg, hostmm.GuestCtx)
			}
			continue // map (or re-handle) on the next pass

		default:
			panic(fmt.Sprintf("hyper: fault on %s page", pg.State))
		}
		break
	}
	if a.write {
		vm.markWrite(pg)
	}
}

// virtioMaxBlocks bounds one virtio request (1 MiB), like real segment
// limits; larger guest requests are split.
const virtioMaxBlocks = 256

// DiskRead emulates a virtio read request: len(gfns) contiguous image
// blocks starting at start, DMA'd into the given guest frames.
func (vm *VM) DiskRead(p *sim.Proc, gfns []int, start int64) {
	for len(gfns) > virtioMaxBlocks {
		vm.DiskRead(p, gfns[:virtioMaxBlocks], start)
		gfns = gfns[virtioMaxBlocks:]
		start += virtioMaxBlocks
	}
	if len(gfns) == 0 {
		return
	}
	vm.exit(p)
	mm := vm.M.MM

	pages := vm.getPageBuf()
	defer func() { vm.putPageBuf(pages) }()
	for _, g := range gfns {
		pages = append(pages, vm.page(g))
	}

	useMapper := vm.Mapper != nil && !vm.Cfg.UnalignedGuestIO
	if useMapper && vm.M.Inj.MapperPoisoned() {
		// Injected swap-cache poisoning: mapping establishment cannot be
		// trusted for this request, so degrade it to the baseline copying
		// flow below (plain swap semantics).
		useMapper = false
	}
	if useMapper {
		// VSwapper flow: readahead the blocks (one contiguous physical
		// read), then mmap them over the targets. Old page content is
		// superseded without being faulted in.
		for _, pg := range pages {
			if pg.State == hostmm.Emulated {
				// Content about to be replaced wholesale: remap, no read.
				vm.Preventer.ForceFinalize(p, pg, false)
			}
		}
		done := vm.M.Dev.Submit(disk.Read, vm.imagePhys(start), len(gfns))
		vm.M.imageRead.Add(int64(len(gfns)) * disk.SectorsPerBlock)
		vm.M.Dev.WaitFor(p, done)
		vm.Mapper.OnDiskRead(p, pages, start)
		return
	}

	// Baseline flow: QEMU preadv faults reclaimed targets back in (stale
	// swap reads) before the physical read lands.
	for _, pg := range pages {
		vm.ensureResidentHost(p, pg, true)
		mm.Pin(pg)
	}
	done := vm.M.Dev.Submit(disk.Read, vm.imagePhys(start), len(gfns))
	vm.M.imageRead.Add(int64(len(gfns)) * disk.SectorsPerBlock)
	vm.M.Dev.WaitFor(p, done)
	for i, pg := range pages {
		// DMA wrote the frame through QEMU's mapping: host knows it is
		// dirty; ground truth says it now equals the block.
		pg.Dirty = true
		pg.TruthBlock = vm.Image.Ref(start + int64(i))
		pg.TruthClean = true
		mm.Touch(pg)
		mm.Unpin(pg)
	}
}

// ensureResidentHost brings a page resident for QEMU-side access, looping
// until the state sticks. stale marks faults whose result is about to be
// overwritten by DMA ("stale swap reads"); it also tells the Preventer
// whether buffered content may be dropped.
func (vm *VM) ensureResidentHost(p *sim.Proc, pg *hostmm.Page, stale bool) {
	dmaOverwrites := stale
	mm := vm.M.MM
	for tries := 0; ; tries++ {
		if tries > 64 {
			panic(fmt.Sprintf("hyper: host access livelock on gfn %d (%s)", pg.ID, pg.State))
		}
		switch pg.State {
		case hostmm.ResidentAnon, hostmm.ResidentFile:
			return
		case hostmm.SwappedOut:
			if stale {
				vm.M.Met.Inc(metrics.StaleSwapReads)
				stale = false // count once per page
			}
			vm.touchText(p, vm.Cfg.TextTouchesPerFault)
			mm.SwapIn(p, pg, hostmm.HostCtx)
		case hostmm.FileNonResident:
			if stale {
				vm.M.Met.Inc(metrics.StaleSwapReads)
				stale = false
			}
			vm.touchText(p, vm.Cfg.TextTouchesPerFault)
			mm.FileFaultIn(p, pg, hostmm.HostCtx)
		case hostmm.Untouched, hostmm.Ballooned:
			mm.FirstTouch(p, pg, hostmm.HostCtx)
		case hostmm.Emulated:
			// DMA read targets supersede buffered content (drop); DMA
			// write sources need the full page content (merge).
			vm.Preventer.ForceFinalize(p, pg, !dmaOverwrites)
		}
	}
}

// DiskWrite emulates a virtio write request: len(gfns) guest frames are
// written to contiguous image blocks starting at start.
func (vm *VM) DiskWrite(p *sim.Proc, gfns []int, start int64) {
	for len(gfns) > virtioMaxBlocks {
		vm.DiskWrite(p, gfns[:virtioMaxBlocks], start)
		gfns = gfns[virtioMaxBlocks:]
		start += virtioMaxBlocks
	}
	if len(gfns) == 0 {
		return
	}
	vm.exit(p)
	mm := vm.M.MM

	pages := vm.getPageBuf()
	defer func() { vm.putPageBuf(pages) }()
	for _, g := range gfns {
		pages = append(pages, vm.page(g))
	}

	// QEMU must read the source frames: fault any the host reclaimed
	// (legitimate reads — the data is truly needed).
	for _, pg := range pages {
		vm.ensureResidentHost(p, pg, false)
		mm.Pin(pg)
	}

	if vm.Mapper != nil && !vm.Cfg.UnalignedGuestIO {
		vm.Mapper.BeforeDiskWrite(p, start, len(gfns))
	}
	done := vm.M.Dev.Submit(disk.Write, vm.imagePhys(start), len(gfns))
	vm.M.imageWrite.Add(int64(len(gfns)) * disk.SectorsPerBlock)
	vm.M.Dev.WaitFor(p, done) // writethrough caching: completion after durability
	for i, pg := range pages {
		pg.TruthBlock = vm.Image.Ref(start + int64(i))
		pg.TruthClean = true
		mm.Unpin(pg)
	}
	if vm.Mapper != nil && !vm.Cfg.UnalignedGuestIO {
		vm.Mapper.AfterDiskWrite(p, pages, start)
	}
}

// BalloonRelease is the inflate hypercall: the guest donated these frames.
func (vm *VM) BalloonRelease(gfns []int) {
	for _, g := range gfns {
		pg := vm.page(g)
		if pg.State == hostmm.Emulated {
			// Rare: a recycled GFN still under emulation. Its content is
			// irrelevant now; drop the buffer synchronously via an
			// immediate remap on a transient process.
			vm.M.Env.Go("balloon-finalize", func(p *sim.Proc) {
				if pg.State == hostmm.Emulated {
					vm.Preventer.ForceFinalize(p, pg, false)
				}
				vm.M.MM.BalloonTake(pg)
			})
			continue
		}
		vm.M.MM.BalloonTake(pg)
	}
}

// BalloonReclaim is the deflate hypercall.
func (vm *VM) BalloonReclaim(gfns []int) {
	for _, g := range gfns {
		pg := vm.page(g)
		if pg.State == hostmm.Ballooned {
			vm.M.MM.BalloonReturn(pg)
		}
	}
}
