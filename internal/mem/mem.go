// Package mem provides the lowest-level memory abstractions shared by the
// host and guest models: the page size, byte/page conversions, and the
// physical frame pool that bounds how much machine memory exists.
package mem

import "fmt"

// PageSize is the architectural page size (4 KiB), which also equals the
// disk block size used throughout the simulator.
const PageSize = 4096

// Pages converts a byte count to a page count, rounding up.
func Pages(bytes int64) int {
	return int((bytes + PageSize - 1) / PageSize)
}

// Bytes converts a page count to bytes.
func Bytes(pages int) int64 { return int64(pages) * PageSize }

// MiB is a convenience constant for sizing configurations.
const MiB = 1 << 20

// FramePool tracks allocation of host physical frames. The simulator does
// not store page contents, so a "frame" is purely an accounting unit: the
// pool bounds total residency and per-cgroup limits bound each guest.
type FramePool struct {
	capacity int
	used     int
}

// NewFramePool returns a pool of capacity frames.
func NewFramePool(capacity int) *FramePool {
	if capacity <= 0 {
		panic("mem: frame pool capacity must be positive")
	}
	return &FramePool{capacity: capacity}
}

// Grab takes n frames. It panics if the pool would be overdrawn: callers
// must reclaim first, so an overdraw is a simulator bug, not a model state.
func (f *FramePool) Grab(n int) {
	if n < 0 {
		panic("mem: negative grab")
	}
	if f.used+n > f.capacity {
		panic(fmt.Sprintf("mem: frame pool overdrawn (%d used + %d > %d)", f.used, n, f.capacity))
	}
	f.used += n
}

// Release returns n frames to the pool.
func (f *FramePool) Release(n int) {
	if n < 0 || f.used-n < 0 {
		panic(fmt.Sprintf("mem: releasing %d of %d used frames", n, f.used))
	}
	f.used -= n
}

// Free reports the number of unallocated frames.
func (f *FramePool) Free() int { return f.capacity - f.used }

// Used reports the number of allocated frames.
func (f *FramePool) Used() int { return f.used }

// Capacity reports the total number of frames.
func (f *FramePool) Capacity() int { return f.capacity }
