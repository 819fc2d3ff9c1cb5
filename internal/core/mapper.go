// Package core implements VSwapper itself: the Swap Mapper and the False
// Reads Preventer (paper §4). Both are guest-agnostic — they only observe
// the virtio I/O stream and EPT write violations; they never peek inside
// the guest OS.
//
// The package is policy: the mechanisms it drives (private mappings,
// invalidation, emulation state transitions) live in internal/hostmm, just
// as the paper splits QEMU-side logic from host-kernel extensions
// (Table 1).
package core

import (
	"vswapsim/internal/hostmm"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// MapperConfig holds the Swap Mapper cost knobs.
type MapperConfig struct {
	// PerPageMapCost is the CPU cost of mmap+ioctl for one page on the
	// guest I/O path (the source of VSwapper's small overhead, §5.3).
	PerPageMapCost sim.Duration
	// InvalidateEnabled can be turned off for the ablation benchmark that
	// shows why the consistency flag is needed.
	InvalidateDisabled bool
}

// DefaultMapperConfig returns costs measured against the paper's ~3.5%
// worst-case overhead: every mapped page pays an mmap plus a KVM ioctl.
func DefaultMapperConfig() MapperConfig {
	return MapperConfig{PerPageMapCost: 3 * sim.Microsecond}
}

// Mapper is the Swap Mapper: it interposes on the guest's virtual disk
// traffic, maintaining the association between unmodified guest memory
// pages and their origin disk blocks, so the host can treat them as
// file-backed (discard instead of swap, prefetch from the image instead of
// the swap area).
type Mapper struct {
	MM    *hostmm.Manager
	Met   *metrics.Set
	Image *hostmm.File
	Cfg   MapperConfig
}

// NewMapper creates a Mapper for one guest's disk image.
func NewMapper(mm *hostmm.Manager, met *metrics.Set, image *hostmm.File, cfg MapperConfig) *Mapper {
	return &Mapper{MM: mm, Met: met, Image: image, Cfg: cfg}
}

// OnDiskRead replaces QEMU's preadv with the paper's readahead+mmap flow:
// the blocks are read into the host page cache (one contiguous request)
// and then privately mapped over the target guest pages, superseding
// whatever those pages held — hence no stale reads, and the pages end up
// named, clean and discardable.
//
// The physical read must be performed by the caller *before* invoking this
// (it owns the device accounting); OnDiskRead performs the mapping side.
func (mp *Mapper) OnDiskRead(p *sim.Proc, pages []*hostmm.Page, start int64) {
	for i, pg := range pages {
		block := start + int64(i)
		mp.MM.MapOver(p, pg, mp.Image.Ref(block))
	}
	p.Sleep(sim.Duration(len(pages)) * mp.Cfg.PerPageMapCost)
}

// BeforeDiskWrite implements the consistency flag: before an explicit
// write to [start, start+n) lands on the image, all private mappings of
// those blocks are invalidated (rescuing old content where needed).
func (mp *Mapper) BeforeDiskWrite(p *sim.Proc, start int64, n int) {
	if mp.Cfg.InvalidateDisabled {
		return
	}
	for i := 0; i < n; i++ {
		mp.MM.InvalidateBlock(p, mp.Image, start+int64(i))
	}
}

// AfterDiskWrite maps the just-written pages to their new blocks (the
// paper's write-then-mmap-then-complete ordering, §4.1 "Guest I/O Flow"):
// the page content now equals the block, so reclaiming it later is free.
func (mp *Mapper) AfterDiskWrite(p *sim.Proc, pages []*hostmm.Page, start int64) {
	for i, pg := range pages {
		block := start + int64(i)
		switch pg.State {
		case hostmm.ResidentAnon:
			mp.MM.AdoptAsNamed(pg, mp.Image.Ref(block))
		case hostmm.ResidentFile:
			if pg.Backing == mp.Image.Ref(block) {
				continue // already mapped to this very block
			}
			// Mapped elsewhere (e.g. a file copy): leave the existing
			// association; it is still valid.
		}
	}
	p.Sleep(sim.Duration(len(pages)) * mp.Cfg.PerPageMapCost)
}

// TrackedPages reports how many disk blocks currently have a live
// page association (the Fig. 15 metric).
func (mp *Mapper) TrackedPages() int { return mp.Image.MappedBlocks() }
