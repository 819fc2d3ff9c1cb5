package hostmm

import (
	"fmt"
	"math"

	"vswapsim/internal/disk"
)

// File is a host-visible file backed by a contiguous disk region: a guest
// disk image, or the QEMU executable on the host root filesystem. Named
// pages reference file blocks through BlockRefs; the File tracks which
// pages map each block so that writes through ordinary I/O channels can
// invalidate stale mappings (the paper's new open-flag semantics, §4.1
// "Data Consistency"). Files belong to the Manager that created them.
type File struct {
	Name   string
	Region disk.Region

	id    FileID
	pages *pageTable // the owning Manager's descriptors

	// InvalidateOnWrite mirrors the paper's new open(2) flag: explicit
	// writes to blocks with live private mappings must break those
	// mappings (after rescuing their old content) before the write lands.
	InvalidateOnWrite bool

	// mappings holds, per block, the descriptor index of the chain head of
	// pages mapping it (0 = none) — a lazily allocated two-level table
	// indexed by block number. Disk images are large (millions of blocks)
	// but mappings cluster, so a flat array would waste memory while a map
	// costs a hash per fault-path probe; 512-entry chunks keep probes at
	// two indexed loads.
	mappings []*mapChunk
	// mapped counts the blocks that ever received a mapping. It mirrors
	// the historical owner-map semantics (entries were never deleted), which
	// fig13's "tracked" column depends on: a block whose chain empties still
	// counts.
	mapped int

	// readahead state (host-side, per file, Linux-style window doubling).
	raNextBlock int64 // block that would continue the current stream
	raWindow    int   // current window in pages
}

const (
	fileChunkBits = 9
	fileChunkSize = 1 << fileChunkBits
	fileChunkMask = fileChunkSize - 1
)

type mapChunk struct {
	head [fileChunkSize]uint32
	// ever marks blocks that ever held a mapping (see File.mapped).
	ever [fileChunkSize / 64]uint64
}

// NewFile registers a file over the region with the manager. Pages record
// blocks in an int32, so the region holds at most MaxInt32 blocks.
func (m *Manager) NewFile(name string, region disk.Region) *File {
	if region.Blocks > math.MaxInt32 {
		panic(fmt.Sprintf("hostmm: file %s of %d blocks exceeds the int32 block range", name, region.Blocks))
	}
	f := &File{
		Name:     name,
		Region:   region,
		id:       FileID(len(m.files)),
		pages:    &m.pages,
		mappings: make([]*mapChunk, (region.Blocks+fileChunkMask)>>fileChunkBits),
	}
	m.files = append(m.files, f)
	return f
}

// Ref returns the reference to one block of the file.
func (f *File) Ref(block int64) BlockRef {
	if block < 0 || block > math.MaxInt32 {
		panic(fmt.Sprintf("hostmm: block %d of %s out of the int32 block range", block, f.Name))
	}
	return BlockRef{File: f.id, Block: int32(block)}
}

// page resolves a descriptor index of the file's chains (0 = none).
func (f *File) page(idx uint32) *Page {
	if idx == 0 {
		return nil
	}
	return f.pages.at(idx)
}

// head returns the chain head for block, or nil.
func (f *File) head(block int64) *Page {
	c := f.mappings[block>>fileChunkBits]
	if c == nil {
		return nil
	}
	return f.page(c.head[block&fileChunkMask])
}

// headSlot returns a pointer to the chain-head slot for block, allocating
// its chunk if needed.
func (f *File) headSlot(block int64) *uint32 {
	ci := block >> fileChunkBits
	c := f.mappings[ci]
	if c == nil {
		c = new(mapChunk)
		f.mappings[ci] = c
	}
	return &c.head[block&fileChunkMask]
}

// Blocks reports the file length in 4 KiB blocks.
func (f *File) Blocks() int64 { return f.Region.Blocks }

// Phys translates a file block to a physical disk block.
func (f *File) Phys(block int64) int64 { return f.Region.Phys(block) }

// AddMapping records that pg (whose Backing must point into f) maps its
// backing block.
func (f *File) AddMapping(pg *Page) {
	if pg.Backing.File != f.id {
		panic("hostmm: AddMapping with foreign backing")
	}
	b := int64(pg.Backing.Block)
	c := f.mappings[b>>fileChunkBits]
	if c == nil {
		c = new(mapChunk)
		f.mappings[b>>fileChunkBits] = c
	}
	idx := b & fileChunkMask
	if c.ever[idx>>6]&(1<<(idx&63)) == 0 {
		c.ever[idx>>6] |= 1 << (idx & 63)
		f.mapped++
	}
	pg.nextMapping = c.head[idx]
	c.head[idx] = pg.idx
}

// RemoveMapping unlinks pg from its backing block's chain.
func (f *File) RemoveMapping(pg *Page) {
	slot := f.headSlot(int64(pg.Backing.Block))
	if *slot == pg.idx {
		*slot = pg.nextMapping
		pg.nextMapping = 0
		return
	}
	cur := f.page(*slot)
	for cur != nil && cur.nextMapping != pg.idx {
		cur = f.page(cur.nextMapping)
	}
	if cur == nil {
		panic("hostmm: RemoveMapping of unmapped page")
	}
	cur.nextMapping = pg.nextMapping
	pg.nextMapping = 0
}

// MappingAt returns the most recent page mapping the block, or nil.
func (f *File) MappingAt(block int64) *Page { return f.head(block) }

// EachMapping calls fn for every page currently mapping the block.
func (f *File) EachMapping(block int64, fn func(*Page)) {
	for pg := f.head(block); pg != nil; {
		next := f.page(pg.nextMapping) // fn may unlink pg
		fn(pg)
		pg = next
	}
}

// CachedResident reports whether some resident page holds the block's
// content (i.e. the block is effectively in the host page cache).
func (f *File) CachedResident(block int64) bool {
	for pg := f.head(block); pg != nil; pg = f.page(pg.nextMapping) {
		if pg.State == ResidentFile {
			return true
		}
	}
	return false
}

// MappedBlocks reports the number of blocks that ever held a mapping.
func (f *File) MappedBlocks() int { return f.mapped }

// readaheadWindow updates the per-file sequential-readahead state for a
// demand access at `block` and returns how many blocks (including the
// demanded one) to read. Sequential streams double the window up to max.
func (f *File) readaheadWindow(block int64, min, max int) int {
	if block == f.raNextBlock && f.raWindow > 0 {
		f.raWindow *= 2
		if f.raWindow > max {
			f.raWindow = max
		}
	} else {
		f.raWindow = min
	}
	win := f.raWindow
	if rest := f.Blocks() - block; int64(win) > rest {
		win = int(rest)
	}
	if win < 1 {
		win = 1
	}
	f.raNextBlock = block + int64(win)
	return win
}
