package hostmm

import (
	"fmt"

	"vswapsim/internal/disk"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// This file holds the host-kernel mechanisms the paper adds or repurposes
// for the Swap Mapper: establishing private file mappings over guest pages
// (mmap with the new no_COW/populate semantics) and invalidating mappings
// when their blocks are written through ordinary I/O (the new open flag).
// Policy — when to call these — lives in internal/core.

// MapOver discards whatever a guest page held and turns it into a
// resident, named, guest-mapped page backed by ref. This models QEMU
// mmap'ing the just-read image blocks over the virtio target pages
// (populate + no_COW + KVM ioctl): the old content is superseded wholesale,
// so no fault-in happens, eliminating stale reads. The caller is
// responsible for having performed the disk read (readahead) already.
func (m *Manager) MapOver(p *sim.Proc, pg *Page, ref BlockRef) {
	if pg.State == Emulated {
		panic("hostmm: MapOver on emulated page; finish emulation first")
	}
	m.Forget(pg) // if a frame was held it is released and re-charged below
	m.chargeFrames(p, m.cgroups[pg.Owner], 1)
	pg.State = ResidentFile
	pg.Backing = ref
	pg.Dirty = false
	pg.EPT = true
	pg.Referenced = true
	pg.TruthBlock = ref
	pg.TruthClean = true
	m.files[ref.File].AddMapping(pg)
	m.push(pg, inactiveFile)
	m.c.mapperEstablish.Inc()
}

// AdoptAsNamed converts a resident anonymous page whose content is known
// (by I/O interposition) to equal ref into a named page, e.g. right after
// the guest wrote the page to its virtual disk. Reclaiming it later is a
// discard instead of a swap write.
func (m *Manager) AdoptAsNamed(pg *Page, ref BlockRef) {
	if pg.State != ResidentAnon {
		panic(fmt.Sprintf("hostmm: AdoptAsNamed on %s page", pg.State))
	}
	if pg.list != noList {
		m.list(pg).remove(pg)
	}
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.slot())
		pg.SwapSlot = -1
	}
	pg.State = ResidentFile
	pg.Dirty = false
	pg.Backing = ref
	pg.TruthBlock = ref
	pg.TruthClean = true
	m.files[ref.File].AddMapping(pg)
	m.push(pg, inactiveFile)
	m.c.mapperEstablish.Inc()
}

// InvalidateBlock implements the paper's new open-flag semantics: before
// an explicit write to a block lands, every page privately mapping that
// block must stop depending on it. Resident mappings become anonymous
// (keeping their frame); non-resident mappings must first have their old
// content C0 read back from the block (that is the consistency read the
// paper describes), then become anonymous and dirty.
func (m *Manager) InvalidateBlock(p *sim.Proc, f *File, block int64) {
	f.EachMapping(block, func(pg *Page) {
		switch pg.State {
		case ResidentFile:
			f.RemoveMapping(pg)
			if pg.list != noList {
				m.list(pg).remove(pg)
			}
			pg.State = ResidentAnon
			pg.Dirty = true
			pg.Backing = BlockRef{}
			m.push(pg, activeAnon)
		case FileNonResident:
			// Rescue C0: synchronous read of the old content.
			done := m.Dev.Submit(disk.Read, f.Phys(block), 1)
			m.Met.Add(metrics.ImageReadSectors, disk.SectorsPerBlock)
			p.SleepUntil(done)
			if pg.State != FileNonResident {
				// A concurrent fault instantiated it during the read; the
				// resident case below cannot apply anymore either, since
				// EachMapping already advanced. Break the association if
				// it still exists.
				if pg.Backing.File == f.id {
					f.RemoveMapping(pg)
					if pg.list != noList {
						m.list(pg).remove(pg)
					}
					pg.State = ResidentAnon
					pg.Dirty = true
					pg.Backing = BlockRef{}
					m.push(pg, activeAnon)
				}
				break
			}
			f.RemoveMapping(pg)
			m.chargeFrames(p, m.cgroups[pg.Owner], 1)
			pg.State = ResidentAnon
			pg.Dirty = true
			pg.EPT = false
			pg.Backing = BlockRef{}
			m.push(pg, inactiveAnon)
		case Emulated:
			// The Preventer's merge source is about to change; the
			// emulated page keeps its Backing until finalization, so we
			// must rescue here as well. This is extremely rare; treat it
			// like the non-resident case but leave finalization to the
			// Preventer, now sourcing from memory.
			done := m.Dev.Submit(disk.Read, f.Phys(block), 1)
			m.Met.Add(metrics.ImageReadSectors, disk.SectorsPerBlock)
			p.SleepUntil(done)
		default:
			panic(fmt.Sprintf("hostmm: mapping chain holds %s page", pg.State))
		}
		m.c.mapperInvalidate.Inc()
	})
}

// --- False Reads Preventer support -------------------------------------

// BeginEmulation detaches a non-resident page for write emulation: the
// page keeps its swap slot or backing (the merge source) but the guest's
// writes will be buffered by the Preventer instead of faulting content in.
func (m *Manager) BeginEmulation(pg *Page) {
	switch pg.State {
	case SwappedOut, FileNonResident:
		pg.State = Emulated
	default:
		panic(fmt.Sprintf("hostmm: BeginEmulation on %s page", pg.State))
	}
}

// RemapOverwrite absorbs a guaranteed full-page overwrite of a
// non-resident page without ever buffering it: the frame is charged (which
// can block in direct reclaim) while the page still holds its non-resident
// state, so concurrent faulters never observe an Emulated page with no
// emulation buffer attached. It reports false when the page left that
// state while the charge blocked — a concurrent fault resolved it first —
// and the caller must retry against the new state.
func (m *Manager) RemapOverwrite(p *sim.Proc, pg *Page) bool {
	st := pg.State
	if st != SwappedOut && st != FileNonResident {
		panic(fmt.Sprintf("hostmm: RemapOverwrite on %s page", pg.State))
	}
	m.chargeFrames(p, m.cgroups[pg.Owner], 1)
	if pg.State != st {
		m.unchargeFrame(m.cgroups[pg.Owner])
		return false
	}
	if pg.Backing.Valid() {
		m.files[pg.Backing.File].RemoveMapping(pg)
		pg.Backing = BlockRef{}
	}
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.slot())
		pg.SwapSlot = -1
	}
	pg.State = ResidentAnon
	pg.Dirty = true
	pg.EPT = true
	pg.Referenced = true
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
	pg.Emu = 0
	m.push(pg, activeAnon)
	m.Met.Inc(metrics.PreventerRemaps)
	return true
}

// EmulationRemap completes emulation for a fully-overwritten page: the
// write buffer becomes the page, old content is dropped unread.
func (m *Manager) EmulationRemap(p *sim.Proc, pg *Page) {
	if pg.State != Emulated {
		panic(fmt.Sprintf("hostmm: EmulationRemap on %s page", pg.State))
	}
	if pg.Backing.Valid() {
		m.files[pg.Backing.File].RemoveMapping(pg)
		pg.Backing = BlockRef{}
	}
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.slot())
		pg.SwapSlot = -1
	}
	m.chargeFrames(p, m.cgroups[pg.Owner], 1)
	pg.State = ResidentAnon
	pg.Dirty = true
	pg.EPT = true
	pg.Referenced = true
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
	pg.Emu = 0
	m.push(pg, activeAnon)
	m.Met.Inc(metrics.PreventerRemaps)
}

// SubmitOldContentRead starts the asynchronous read of an emulated page's
// prior content (swap slot or backing block) and returns its completion
// time. The Preventer merges when it completes.
func (m *Manager) SubmitOldContentRead(pg *Page) sim.Time {
	if pg.State != Emulated {
		panic(fmt.Sprintf("hostmm: SubmitOldContentRead on %s page", pg.State))
	}
	if pg.SwapSlot >= 0 {
		done := m.Dev.Submit(disk.Read, m.Swap.Phys(pg.slot()), 1)
		m.Met.Inc(metrics.SwapReadOps)
		m.Met.Add(metrics.SwapReadSectors, disk.SectorsPerBlock)
		return done
	}
	if pg.Backing.Valid() {
		done := m.Dev.Submit(disk.Read, m.files[pg.Backing.File].Phys(int64(pg.Backing.Block)), 1)
		m.Met.Add(metrics.ImageReadSectors, disk.SectorsPerBlock)
		return done
	}
	// Content already rescued (invalidation race): no I/O needed.
	return m.Env.Now()
}

// EmulationMerge completes emulation after the old content was read: the
// buffered bytes overlay it and the page becomes a normal dirty anonymous
// page.
func (m *Manager) EmulationMerge(p *sim.Proc, pg *Page) {
	if pg.State != Emulated {
		panic(fmt.Sprintf("hostmm: EmulationMerge on %s page", pg.State))
	}
	if pg.Backing.Valid() {
		m.files[pg.Backing.File].RemoveMapping(pg)
		pg.Backing = BlockRef{}
	}
	if pg.SwapSlot >= 0 {
		m.Swap.Free(pg.slot())
		pg.SwapSlot = -1
	}
	m.chargeFrames(p, m.cgroups[pg.Owner], 1)
	pg.State = ResidentAnon
	pg.Dirty = true
	pg.EPT = true
	pg.Referenced = true
	pg.TruthClean = false
	pg.TruthBlock = BlockRef{}
	pg.Emu = 0
	m.push(pg, activeAnon)
	m.Met.Inc(metrics.PreventerMerges)
}
