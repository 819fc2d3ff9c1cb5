package hostmm

import (
	"fmt"
	"slices"
	"testing"

	"vswapsim/internal/disk"
	"vswapsim/internal/sim"
)

// denseSwapArea is the reference slot allocator: the straightforward
// implementation over a dense free []bool and owner []*Page covering every
// slot. SwapArea must hand out exactly the slots this one does.
type denseSwapArea struct {
	region disk.Region
	free   []bool
	owner  []*Page
	inUse  int
	hint   int64

	next        int64
	clusterEnd  int64
	clusterHint int64
	scanFailed  bool
	freesSince  int

	// Path counters, so the comparison test can prove it exercised each
	// allocation path.
	clusterStarts, wrapStarts, lowestFree int
}

func newDenseSwapArea(region disk.Region) *denseSwapArea {
	s := &denseSwapArea{
		region: region,
		free:   make([]bool, region.Blocks),
		owner:  make([]*Page, region.Blocks),
		next:   -1,
	}
	for i := range s.free {
		s.free[i] = true
	}
	return s
}

func (s *denseSwapArea) Alloc(pg *Page) int64 {
	if s.next >= 0 {
		for s.next < s.clusterEnd {
			i := s.next
			s.next++
			if s.free[i] {
				return s.take(i, pg)
			}
		}
		s.next = -1
	}
	if !s.scanFailed {
		if start := s.findCluster(); start >= 0 {
			s.clusterStarts++
			s.next = start + 1
			s.clusterEnd = start + SlotsPerCluster
			return s.take(start, pg)
		}
		s.scanFailed = true
		s.freesSince = 0
	}
	for i := s.hint; i < s.region.Blocks; i++ {
		if s.free[i] {
			s.lowestFree++
			return s.take(i, pg)
		}
	}
	return -1
}

func (s *denseSwapArea) findCluster() int64 {
	scan := func(from, to int64) int64 {
		run := int64(0)
		for i := from; i < to; i++ {
			if s.free[i] {
				run++
				if run == SlotsPerCluster {
					start := i - run + 1
					s.clusterHint = i + 1
					return start
				}
			} else {
				run = 0
			}
		}
		return -1
	}
	if start := scan(s.clusterHint, s.region.Blocks); start >= 0 {
		return start
	}
	end := s.clusterHint + SlotsPerCluster
	if end > s.region.Blocks {
		end = s.region.Blocks
	}
	start := scan(0, end)
	if start >= 0 {
		s.wrapStarts++
	}
	return start
}

func (s *denseSwapArea) take(i int64, pg *Page) int64 {
	s.free[i] = false
	if i == s.hint {
		s.hint = i + 1
	}
	s.inUse++
	s.owner[i] = pg
	return i
}

func (s *denseSwapArea) Free(slot int64) {
	if slot < 0 || slot >= s.region.Blocks || s.free[slot] {
		panic(fmt.Sprintf("reference: freeing bad swap slot %d", slot))
	}
	s.free[slot] = true
	if slot < s.hint {
		s.hint = slot
	}
	s.inUse--
	s.owner[slot] = nil
	if s.scanFailed {
		s.freesSince++
		if s.freesSince >= SlotsPerCluster {
			s.scanFailed = false
		}
	}
}

func (s *denseSwapArea) fragmented() bool {
	run := int64(0)
	for i := int64(0); i < s.region.Blocks; i++ {
		if s.free[i] {
			run++
			if run >= SlotsPerCluster {
				return false
			}
		} else {
			run = 0
		}
	}
	return true
}

func (s *denseSwapArea) AppendClusterRun(dst []int64, slot int64, cluster int) []int64 {
	if cluster <= 1 {
		return append(dst, slot)
	}
	base := slot - slot%int64(cluster)
	end := base + int64(cluster)
	if end > s.region.Blocks {
		end = s.region.Blocks
	}
	for i := base; i < end; i++ {
		if !s.free[i] {
			dst = append(dst, i)
		}
	}
	return dst
}

// refChurn drives a SwapArea and the dense reference with the same
// operations and fails on the first disagreement.
type refChurn struct {
	t       *testing.T
	s       *SwapArea
	newPage func(id int) *Page
	ref     *denseSwapArea
	rng     *sim.RNG
	held    []*Page
	ops     int
	// every is the stride, in operations, of the full comparison.
	every int
	// Reused AppendClusterRun destinations.
	got, want []int64
}

func (c *refChurn) alloc() int64 {
	pg := c.newPage(c.ops)
	got, want := c.s.Alloc(pg), c.ref.Alloc(pg)
	if got != want {
		c.t.Fatalf("op %d: Alloc = %d, reference %d", c.ops, got, want)
	}
	if got >= 0 {
		pg.SwapSlot = int32(got)
		c.held = append(c.held, pg)
	}
	c.step(got)
	return got
}

func (c *refChurn) free(k int) {
	pg := c.held[k]
	c.held[k] = c.held[len(c.held)-1]
	c.held = c.held[:len(c.held)-1]
	c.s.Free(pg.slot())
	c.ref.Free(pg.slot())
	c.step(pg.slot())
}

// freeWindow frees every held slot in [from, from+n), leaving a free run
// of n slots.
func (c *refChurn) freeWindow(from, n int64) {
	for k := 0; k < len(c.held); {
		if slot := c.held[k].slot(); slot >= from && slot < from+n {
			c.free(k)
			continue
		}
		k++
	}
}

// churn runs n random operations, allocating with probability pAlloc and
// freeing a random held slot otherwise.
func (c *refChurn) churn(n int, pAlloc float64) {
	for i := 0; i < n; i++ {
		if len(c.held) == 0 || c.rng.Float64() < pAlloc {
			c.alloc()
		} else {
			c.free(c.rng.Intn(len(c.held)))
		}
	}
}

// step compares the two allocators after one operation: the in-use count
// and the owner at the touched slot every time, the swap-in window around
// a random slot, and every owner plus fragmented() every c.every operations.
func (c *refChurn) step(slot int64) {
	c.ops++
	if got, want := c.s.InUse(), c.ref.inUse; got != want {
		c.t.Fatalf("op %d: InUse = %d, reference %d", c.ops, got, want)
	}
	if slot >= 0 && c.s.Owner(slot) != c.ref.owner[slot] {
		c.t.Fatalf("op %d: Owner(%d) disagrees with the reference", c.ops, slot)
	}
	probe := c.rng.Int63n(c.s.Slots())
	for _, cluster := range []int{1, 8, 16} {
		c.got = c.s.AppendClusterRun(c.got[:0], probe, cluster)
		c.want = c.ref.AppendClusterRun(c.want[:0], probe, cluster)
		if !slices.Equal(c.got, c.want) {
			c.t.Fatalf("op %d: AppendClusterRun(%d, %d) = %v, reference %v", c.ops, probe, cluster, c.got, c.want)
		}
	}
	if c.ops%c.every == 0 {
		c.fullCheck()
	}
}

func (c *refChurn) fullCheck() {
	if got, want := c.s.fragmented(), c.ref.fragmented(); got != want {
		c.t.Fatalf("op %d: fragmented() = %v, reference %v", c.ops, got, want)
	}
	for slot := int64(0); slot < c.s.Slots(); slot++ {
		if c.s.Owner(slot) != c.ref.owner[slot] {
			c.t.Fatalf("op %d: Owner(%d) disagrees with the reference", c.ops, slot)
		}
	}
	if got, want := c.s.ownedSlots(), c.ref.inUse; got != want {
		c.t.Fatalf("op %d: ownedSlots() = %d, reference in use %d", c.ops, got, want)
	}
}

// TestSwapAreaMatchesDenseReference drives the chunked slot table and the
// dense reference allocator through the same seeded churn — fill to full,
// scattered frees until the area fragments, steady churn on the
// lowest-free path, windowed frees that let it recover whole clusters
// (found across chunk boundaries and by the wrap-around scan), and a full
// drain — over region sizes that are and are not multiples of the chunk
// size, and requires identical results throughout.
func TestSwapAreaMatchesDenseReference(t *testing.T) {
	for _, n := range []int64{600, 1024, 4*SlotsPerCluster + 17, 1 << 14} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			region := disk.NewLayout(1<<20).Reserve("swap", n)
			c := &refChurn{
				t:   t,
				s:   NewSwapArea(region),
				ref: newDenseSwapArea(region),
				rng: sim.NewRNG(uint64(n)),
				// Full comparisons cost O(n): keep them to ~1 per 64th
				// of the area's operations, but at least every 64.
				every: int(max(64, n/64)),
			}
			c.newPage = swapPages(c.s)
			for round := 0; round < 3; round++ {
				for c.alloc() >= 0 {
				}
				if round == 0 {
					// Free runs on either side of a full chunk, together
					// longer than a cluster, must not join into one.
					b := min(128, n-2*SlotsPerCluster)
					a := SlotsPerCluster + 32 - b
					c.freeWindow(SlotsPerCluster-a, a)
					c.freeWindow(2*SlotsPerCluster, b)
					c.fullCheck()
				}
				for i := len(c.held) / 8; i > 0; i-- {
					c.free(c.rng.Intn(len(c.held)))
				}
				c.fullCheck()
				if !c.ref.fragmented() {
					t.Fatalf("round %d: scattered frees left a whole free cluster", round)
				}
				// Enough frees (>= SlotsPerCluster) to re-arm a failed
				// cluster scan more than once.
				c.churn(int(max(n/8, 4*SlotsPerCluster)), 0.5)
				for w := 0; w < 6; w++ {
					from := c.rng.Int63n(n - SlotsPerCluster + 1)
					c.freeWindow(from, min(n-from, SlotsPerCluster+c.rng.Int63n(SlotsPerCluster)))
					c.fullCheck()
					if c.ref.fragmented() {
						t.Fatalf("round %d: a freed window did not recover a cluster", round)
					}
					c.churn(int(min(n/2, 8*SlotsPerCluster)), 0.6)
				}
				for len(c.held) > 0 {
					c.free(c.rng.Intn(len(c.held)))
				}
				c.fullCheck()
			}
			if c.ref.clusterStarts == 0 || c.ref.wrapStarts == 0 || c.ref.lowestFree == 0 {
				t.Fatalf("churn missed an allocation path: %d cluster starts, %d via wrap-around, %d lowest-free",
					c.ref.clusterStarts, c.ref.wrapStarts, c.ref.lowestFree)
			}
		})
	}
}
