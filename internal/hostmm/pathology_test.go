package hostmm

import (
	"testing"

	"vswapsim/internal/disk"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// TestPathologyCountersDisjoint locks in which reclaim path increments
// which pathology counter — and, just as important, which it must NOT.
// Every swap-out writes exactly one block (SectorsPerBlock sectors), silent
// writes are a subset of swap-outs, and the read-side pathology counters
// (stale/false reads, which only the platform's virtio paths can trigger)
// stay untouched by any write-side scenario.
func TestPathologyCountersDisjoint(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig, p *sim.Proc)
		// expectations, checked after the sim drains
		wantSwapOuts  func(outs int64) bool
		wantSilent    func(silent, outs int64) bool
		wantDiscards  func(discards int64) bool
		wantCOWBreaks int64
	}{
		{
			// Plain dirty anonymous pages: swap-outs happen but none is
			// "silent" — the host has no ground truth saying they are clean.
			name: "dirty anon",
			run: func(t *testing.T, r *rig, p *sim.Proc) {
				for i := 0; i < 12; i++ {
					pg := r.mgr.NewPage(r.cg, i)
					r.mgr.FirstTouch(p, pg, GuestCtx)
				}
			},
			wantSwapOuts: func(outs int64) bool { return outs > 0 },
			wantSilent:   func(silent, _ int64) bool { return silent == 0 },
			wantDiscards: func(d int64) bool { return d == 0 },
		},
		{
			// Pages whose content provably equals a disk block (virtio DMA
			// filled them): every swap-out of these is a silent write.
			name: "silent writes",
			run: func(t *testing.T, r *rig, p *sim.Proc) {
				for i := 0; i < 12; i++ {
					pg := r.mgr.NewPage(r.cg, i)
					r.mgr.FirstTouch(p, pg, GuestCtx)
					pg.TruthBlock = r.img.Ref(int64(i))
					pg.TruthClean = true
				}
			},
			wantSwapOuts: func(outs int64) bool { return outs > 0 },
			wantSilent:   func(silent, outs int64) bool { return silent == outs },
			wantDiscards: func(d int64) bool { return d == 0 },
		},
		{
			// COW-broken file pages become genuinely dirty anonymous pages:
			// reclaim swaps them out, but the break cleared TruthClean, so
			// none may be double-counted as a silent write.
			name: "cow broken",
			run: func(t *testing.T, r *rig, p *sim.Proc) {
				for i := 0; i < 12; i++ {
					pg := r.mgr.NewFilePage(r.cg, i, r.img.Ref(int64(i*2)))
					r.mgr.FileFaultIn(p, pg, GuestCtx)
					r.mgr.MinorMap(p, pg, GuestCtx)
					r.mgr.COWBreak(p, pg, GuestCtx)
				}
			},
			wantSwapOuts:  func(outs int64) bool { return outs > 0 },
			wantSilent:    func(silent, _ int64) bool { return silent == 0 },
			wantDiscards:  func(d int64) bool { return d == 0 },
			wantCOWBreaks: 12,
		},
		{
			// Clean file pages are discarded, never written to swap: the
			// write-side pathology counters must all stay at zero.
			name: "clean file",
			run: func(t *testing.T, r *rig, p *sim.Proc) {
				for i := 0; i < 12; i++ {
					pg := r.mgr.NewFilePage(r.cg, i, r.img.Ref(int64(i*2)))
					r.mgr.FileFaultIn(p, pg, GuestCtx)
					r.mgr.MinorMap(p, pg, GuestCtx)
				}
			},
			wantSwapOuts: func(outs int64) bool { return outs == 0 },
			wantSilent:   func(silent, _ int64) bool { return silent == 0 },
			wantDiscards: func(d int64) bool { return d > 0 },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1000, 4)
			r.run(t, func(p *sim.Proc) { tc.run(t, r, p) })
			outs := r.met.Get(metrics.HostSwapOuts)
			silent := r.met.Get(metrics.SilentSwapWrites)
			if !tc.wantSwapOuts(outs) {
				t.Errorf("swap outs = %d", outs)
			}
			if !tc.wantSilent(silent, outs) {
				t.Errorf("silent writes = %d (swap outs %d)", silent, outs)
			}
			if silent > outs {
				t.Errorf("silent writes %d exceed swap outs %d", silent, outs)
			}
			if !tc.wantDiscards(r.met.Get(metrics.HostFileDiscards)) {
				t.Errorf("file discards = %d", r.met.Get(metrics.HostFileDiscards))
			}
			if got := r.met.Get(metrics.HostCOWBreaks); got != tc.wantCOWBreaks {
				t.Errorf("cow breaks = %d, want %d", got, tc.wantCOWBreaks)
			}
			// Each swap-out writes its one slot exactly once.
			if got, want := r.met.Get(metrics.SwapWriteSectors), outs*disk.SectorsPerBlock; got != want {
				t.Errorf("swap write sectors = %d, want %d (one block per swap-out)", got, want)
			}
			// Read-side pathologies are platform-level; no hostmm write path
			// may touch them.
			for _, name := range []string{metrics.StaleSwapReads, metrics.FalseSwapReads} {
				if v := r.met.Get(name); v != 0 {
					t.Errorf("%s = %d on a write-side path, want 0", name, v)
				}
			}
		})
	}
}
