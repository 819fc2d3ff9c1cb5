package hostmm

import (
	"fmt"
	"math"

	"vswapsim/internal/disk"
)

// SwapArea is the host swap partition: a slot allocator over a disk region
// plus the swap cache. Slots are handed out lowest-free-first (as Linux
// does), which is what makes swap placement decay: the free set fragments
// as pages cycle in and out, so consecutive guest pages stop landing in
// consecutive slots.
type SwapArea struct {
	region disk.Region
	inUse  int
	hint   int64 // lowest slot that might be free

	// Cluster allocation (Linux SWAPFILE_CLUSTER): consecutive
	// allocations draw from a run of free slots so swap writeback stays
	// sequential while free runs last; once the area fragments,
	// allocation degrades to lowest-free and placement decays.
	next        int64 // next slot inside the current cluster (-1 = none)
	clusterEnd  int64
	clusterHint int64 // where the next cluster search resumes
	scanFailed  bool  // no free cluster exists until enough slots free up
	freesSince  int   // slots freed since the last failed cluster scan

	// chunks records, per slot, the descriptor index of the page whose
	// content the slot holds; 0 marks a free slot. The table is split
	// into one-cluster chunks, each allocated when one of its slots is
	// first taken: a run touches a few percent of a multi-GiB partition,
	// so a dense table would be mostly zeroing, while the fault path,
	// which reads ownership for every slot of a readahead cluster, still
	// gets indexed loads.
	chunks []*slotChunk
	// pages resolves owner indices: the page table of the Manager the
	// area serves (set by NewManager).
	pages *pageTable

	// onFree, when non-nil, observes every slot release (the swap backend
	// hooks it to drop fast-tier copies when their slot dies).
	onFree func(slot int64)
}

// SlotsPerCluster mirrors Linux's SWAPFILE_CLUSTER.
const SlotsPerCluster = 1 << clusterBits

const (
	clusterBits = 8
	clusterMask = SlotsPerCluster - 1
)

// slotChunk holds the owners of one cluster-aligned run of slots, as
// descriptor indices (0 = free). used counts its owned slots, so scans
// cross empty and full chunks in one step.
type slotChunk struct {
	used  int
	owner [SlotsPerCluster]uint32
}

// NewSwapArea returns a swap area over the given region. Pages record
// their slot in an int32, so the region holds at most MaxInt32 slots.
func NewSwapArea(region disk.Region) *SwapArea {
	if region.Blocks > math.MaxInt32 {
		panic(fmt.Sprintf("hostmm: swap area of %d slots exceeds the int32 slot range", region.Blocks))
	}
	return &SwapArea{
		region: region,
		chunks: make([]*slotChunk, (region.Blocks+clusterMask)>>clusterBits),
		next:   -1,
	}
}

// Slots reports the total slot count.
func (s *SwapArea) Slots() int64 { return s.region.Blocks }

// InUse reports the number of allocated slots.
func (s *SwapArea) InUse() int { return s.inUse }

// Alloc assigns a slot to page pg and returns it, preferring to continue
// the current free cluster. It returns -1 if the area is full.
func (s *SwapArea) Alloc(pg *Page) int64 {
	if pg == nil || pg.idx == 0 {
		panic("hostmm: swap slot allocated to a page no manager created")
	}
	// Continue the current cluster while it has free slots.
	if s.next >= 0 {
		if i := s.nextFree(s.next, s.clusterEnd); i >= 0 {
			s.next = i + 1
			return s.take(i, pg)
		}
		s.next = -1
	}
	// Find a fresh run of SlotsPerCluster free slots, resuming the search
	// where it last left off; when the area is known fragmented, skip the
	// scan until enough slots were freed to possibly form a cluster.
	if !s.scanFailed {
		if start := s.findCluster(); start >= 0 {
			s.next = start + 1
			s.clusterEnd = start + SlotsPerCluster
			return s.take(start, pg)
		}
		s.scanFailed = true
		s.freesSince = 0
	}
	// Fragmented: degrade to lowest-free (placement decay).
	if i := s.nextFree(s.hint, s.region.Blocks); i >= 0 {
		return s.take(i, pg)
	}
	return -1
}

// nextFree returns the lowest free slot in [from, to), or -1.
func (s *SwapArea) nextFree(from, to int64) int64 {
	for i := from; i < to; {
		c := s.chunks[i>>clusterBits]
		if c == nil || c.used == 0 {
			return i
		}
		end := min(to, (i|clusterMask)+1)
		if c.used < SlotsPerCluster {
			for ; i < end; i++ {
				if c.owner[i&clusterMask] == 0 {
					return i
				}
			}
		}
		i = end
	}
	return -1
}

// findCluster locates a run of SlotsPerCluster free slots, scanning from
// clusterHint with wrap-around; -1 if none exists.
func (s *SwapArea) findCluster() int64 {
	last := s.freeRunEnd(s.clusterHint, s.region.Blocks)
	if last < 0 {
		last = s.freeRunEnd(0, min(s.clusterHint+SlotsPerCluster, s.region.Blocks))
		if last < 0 {
			return -1
		}
	}
	s.clusterHint = last + 1
	return last - SlotsPerCluster + 1
}

// freeRunEnd returns the slot that completes the first run of
// SlotsPerCluster free slots counted from `from`, scanning up to `to`;
// -1 if none does. Unallocated and empty chunks (all free) and full chunks
// (none free) are crossed in one step; only partly used chunks are
// scanned slot by slot.
func (s *SwapArea) freeRunEnd(from, to int64) int64 {
	run := int64(0)
	for i := from; i < to; {
		c := s.chunks[i>>clusterBits]
		end := min(to, (i|clusterMask)+1)
		switch {
		case c == nil || c.used == 0:
			if run+end-i >= SlotsPerCluster {
				return i + SlotsPerCluster - run - 1
			}
			run += end - i
			i = end
		case c.used == SlotsPerCluster:
			run = 0
			i = end
		default:
			for ; i < end; i++ {
				if c.owner[i&clusterMask] != 0 {
					run = 0
				} else if run++; run == SlotsPerCluster {
					return i
				}
			}
		}
	}
	return -1
}

func (s *SwapArea) take(i int64, pg *Page) int64 {
	c := s.chunks[i>>clusterBits]
	if c == nil {
		c = new(slotChunk)
		s.chunks[i>>clusterBits] = c
	}
	c.owner[i&clusterMask] = pg.idx
	c.used++
	if i == s.hint {
		s.hint = i + 1
	}
	s.inUse++
	return i
}

// Free releases a slot.
func (s *SwapArea) Free(slot int64) {
	if s.ownerIndex(slot) == 0 {
		panic(fmt.Sprintf("hostmm: freeing bad swap slot %d", slot))
	}
	c := s.chunks[slot>>clusterBits]
	c.owner[slot&clusterMask] = 0
	c.used--
	if slot < s.hint {
		s.hint = slot
	}
	s.inUse--
	if s.scanFailed {
		s.freesSince++
		if s.freesSince >= SlotsPerCluster {
			s.scanFailed = false // a cluster may exist again; rescan
		}
	}
	if s.onFree != nil {
		s.onFree(slot)
	}
}

// ownedSlots counts the slots with a recorded owner (used by tests to
// cross-check the allocator's in-use count).
func (s *SwapArea) ownedSlots() int {
	n := 0
	for _, c := range s.chunks {
		switch {
		case c == nil || c.used == 0:
		case c.used == SlotsPerCluster:
			n += SlotsPerCluster
		default:
			for _, idx := range c.owner {
				if idx != 0 {
					n++
				}
			}
		}
	}
	return n
}

// fragmented reports whether no whole free cluster remains (used by tests
// asserting placement decay).
func (s *SwapArea) fragmented() bool {
	return s.freeRunEnd(0, s.region.Blocks) < 0
}

// Owner returns the page stored at slot, or nil if the slot is free or out
// of range.
func (s *SwapArea) Owner(slot int64) *Page {
	if idx := s.ownerIndex(slot); idx != 0 {
		return s.pages.at(idx)
	}
	return nil
}

// ownerIndex returns the descriptor index of the page stored at slot, or 0
// if the slot is free or out of range.
func (s *SwapArea) ownerIndex(slot int64) uint32 {
	if slot < 0 || slot >= s.region.Blocks {
		return 0
	}
	c := s.chunks[slot>>clusterBits]
	if c == nil {
		return 0
	}
	return c.owner[slot&clusterMask]
}

// Phys translates a slot to a physical disk block.
func (s *SwapArea) Phys(slot int64) int64 { return s.region.Phys(slot) }

// ClusterRun returns the window of allocated slots that a swap-in at slot
// would read in one go: Linux reads an aligned cluster of `cluster` slots
// around the fault and skips holes. The returned slice lists the slots (in
// ascending order, always including `slot`) grouped into maximal
// disk-contiguous runs by the caller.
func (s *SwapArea) ClusterRun(slot int64, cluster int) []int64 {
	return s.AppendClusterRun(nil, slot, cluster)
}

// AppendClusterRun is ClusterRun appending into dst (reusing its capacity),
// for callers that recycle the slot buffer across faults.
func (s *SwapArea) AppendClusterRun(dst []int64, slot int64, cluster int) []int64 {
	if cluster <= 1 {
		return append(dst, slot)
	}
	base := slot - slot%int64(cluster)
	end := base + int64(cluster)
	if end > s.region.Blocks {
		end = s.region.Blocks
	}
	for i := base; i < end; i++ {
		if s.ownerIndex(i) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}
