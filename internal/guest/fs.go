package guest

import (
	"fmt"
	"math"
)

// VFile is a file on the guest's virtual disk. The tiny extent filesystem
// lays files out contiguously (like a freshly formatted ext4 writing large
// files), which is what gives the disk image the sequential structure the
// Mapper's prefetching benefits from.
type VFile struct {
	Name   string
	Start  int64 // first vdisk block
	Blocks int64
}

// Block translates a file-relative block to a vdisk block.
func (f *VFile) Block(rel int64) int64 {
	if rel < 0 || rel >= f.Blocks {
		panic(fmt.Sprintf("guest: block %d outside file %q", rel, f.Name))
	}
	return f.Start + rel
}

// SizeBytes reports the file size.
func (f *VFile) SizeBytes() int64 { return f.Blocks * pageSizeBytes }

// FileSystem is the guest's extent allocator over its virtual disk. The
// last SwapBlocks blocks form the guest swap partition.
type FileSystem struct {
	totalBlocks int64
	swapBlocks  int64
	next        int64
	files       map[string]*VFile
}

// NewFileSystem creates a filesystem over a virtual disk of totalBlocks,
// reserving swapBlocks at the end as the guest swap partition. A frame's
// metadata holds a block as an int32, so the disk has at most MaxInt32
// blocks.
func NewFileSystem(totalBlocks, swapBlocks int64) *FileSystem {
	if totalBlocks > math.MaxInt32 {
		panic(fmt.Sprintf("guest: disk of %d blocks exceeds the %d a frame's block field holds",
			totalBlocks, math.MaxInt32))
	}
	if swapBlocks >= totalBlocks {
		panic("guest: swap larger than disk")
	}
	return &FileSystem{
		totalBlocks: totalBlocks,
		swapBlocks:  swapBlocks,
		files:       make(map[string]*VFile),
	}
}

// Create allocates a contiguous file of the given size (rounded up to
// whole blocks).
func (fs *FileSystem) Create(name string, sizeBytes int64) *VFile {
	if _, dup := fs.files[name]; dup {
		panic(fmt.Sprintf("guest: file %q exists", name))
	}
	blocks := (sizeBytes + pageSizeBytes - 1) / pageSizeBytes
	if fs.next+blocks > fs.totalBlocks-fs.swapBlocks {
		panic(fmt.Sprintf("guest: disk full creating %q", name))
	}
	f := &VFile{Name: name, Start: fs.next, Blocks: blocks}
	fs.next += blocks
	fs.files[name] = f
	return f
}

// Lookup returns a file by name.
func (fs *FileSystem) Lookup(name string) (*VFile, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// TotalBlocks reports the virtual disk capacity in blocks.
func (fs *FileSystem) TotalBlocks() int64 { return fs.totalBlocks }

// SwapStart reports the first block of the guest swap partition.
func (fs *FileSystem) SwapStart() int64 { return fs.totalBlocks - fs.swapBlocks }

// SwapBlocks reports the guest swap partition size in blocks.
func (fs *FileSystem) SwapBlocks() int64 { return fs.swapBlocks }

// swapOwner identifies the process page stored in a slot, enabling guest
// swap readahead.
type swapOwner struct {
	proc uint16 // the process's OS.procs index; 0 marks an unowned slot
	idx  int32  // anon index
}

// guestSwap allocates slots in the guest swap partition, lowest-first.
type guestSwap struct {
	start int64 // vdisk block of slot 0
	free  []bool
	hint  int32
	inUse int
	// owner is a dense per-slot table: swap readahead probes consecutive
	// slots on every guest swap-in, so lookups must be indexed loads
	// rather than map probes.
	owner []swapOwner
}

func newGuestSwap(start, blocks int64) *guestSwap {
	g := &guestSwap{
		start: start,
		free:  make([]bool, blocks),
		owner: make([]swapOwner, blocks),
	}
	for i := range g.free {
		g.free[i] = true
	}
	return g
}

func (g *guestSwap) alloc() int32 {
	for i := g.hint; int(i) < len(g.free); i++ {
		if g.free[i] {
			g.free[i] = false
			g.hint = i + 1
			g.inUse++
			return i
		}
	}
	return -1
}

func (g *guestSwap) release(slot int32) {
	if slot < 0 || int(slot) >= len(g.free) || g.free[slot] {
		panic(fmt.Sprintf("guest: freeing bad swap slot %d", slot))
	}
	g.free[slot] = true
	if slot < g.hint {
		g.hint = slot
	}
	g.inUse--
	g.owner[slot] = swapOwner{}
}

// setOwner records which process page a slot holds.
func (g *guestSwap) setOwner(slot int32, proc uint16, idx int32) {
	g.owner[slot] = swapOwner{proc: proc, idx: idx}
}

// ownerAt returns the owner of slot (proc == 0 when unowned or out of
// range).
func (g *guestSwap) ownerAt(slot int32) swapOwner {
	if slot < 0 || int(slot) >= len(g.owner) {
		return swapOwner{}
	}
	return g.owner[slot]
}

// block translates a slot to its vdisk block.
func (g *guestSwap) block(slot int32) int64 { return g.start + int64(slot) }
