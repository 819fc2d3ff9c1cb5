package metrics

import (
	"sync"
	"testing"
)

// TestSetsIsolatedAcrossGoroutines hammers two Sets from separate OS
// goroutines. A Set is owned by one simulated machine and is not itself
// thread-safe; what the parallel experiment executor requires is that two
// machines' Sets share no hidden state — every count lands in the Set the
// goroutine owns, and the race detector stays quiet.
func TestSetsIsolatedAcrossGoroutines(t *testing.T) {
	const (
		workers = 8
		iters   = 20000
	)
	sets := make([]*Set, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		sets[i] = NewSet()
		go func(i int) {
			defer wg.Done()
			s := sets[i]
			snap := s.Snapshot()
			for j := 0; j < iters; j++ {
				s.Inc(DiskOps)
				s.Add(SwapWriteSectors, int64(i+1))
			}
			if d := s.Diff(snap); d[DiskOps] != iters {
				t.Errorf("worker %d: diff %d, want %d", i, d[DiskOps], iters)
			}
		}(i)
	}
	wg.Wait()

	for i, s := range sets {
		if got := s.Get(DiskOps); got != iters {
			t.Fatalf("set %d: %s = %d, want %d (cross-set interference)", i, DiskOps, got, iters)
		}
		if got := s.Get(SwapWriteSectors); got != int64(iters*(i+1)) {
			t.Fatalf("set %d: %s = %d, want %d", i, SwapWriteSectors, got, iters*(i+1))
		}
	}
}
