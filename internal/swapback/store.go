package swapback

import (
	"vswapsim/internal/disk"
	"vswapsim/internal/fault"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Store is the host MM's swap destination: it accepts the read/write
// requests hostmm used to send straight to the disk.Device and routes them
// through the configured backend model. The hostswap.* traffic counters
// are owned here and count every tier's swap I/O uniformly, so figure code
// that reads them (Fig. 9d silent writes, etc.) works for any backend.
//
// The HDD kind is the transparent default: every method forwards to the
// Device with the exact request and counter updates the pre-backend code
// issued, no extra metrics resolved and no randomness drawn, keeping
// default-backend runs byte-identical.
type Store struct {
	kind   Kind
	policy Policy
	env    *sim.Env
	dev    *disk.Device
	phys   func(int64) int64
	inj    *fault.Injector

	readOps, readSectors   *metrics.Counter
	writeOps, writeSectors *metrics.Counter

	slow slowTier   // nil for HDD (requests go straight to dev)
	fast *zswapPool // nil unless kind == Zswap

	// Resolved only for non-HDD kinds so the default backend creates no
	// new counters in the report.
	sbReadOps, sbWriteOps *metrics.Counter
	histRead, histWrite   *metrics.Histogram
	promote               *metrics.Counter

	// ownerKey resolves a still-allocated slot to a stable page identity
	// (for compressibility and heat tracking across slot reuse). Installed
	// by hostmm via SetOwnerKey; nil falls back to the slot number.
	ownerKey func(int64) uint64
	heat     *heatRing // PolicyHot + fast tier only

	scratch [1]int64
}

// slowTier is a single backing device model addressed by swap slot:
// the rotating drive (zswap's backing store), the SSD, or the remote
// target. submit is asynchronous, like disk.Device.Submit.
type slowTier interface {
	submit(kind disk.Kind, slot int64, n int) sim.Time
	backlog() sim.Duration
}

// Injected-error retry policy for tiers that do not go through the
// disk.Device: the same bounded exponential backoff the Device's firmware
// model uses (disk/device.go), so `-faults disk:*` specs degrade every
// tier the same way.
const (
	xferMaxRetries   = 5
	xferRetryBackoff = 500 * sim.Microsecond
)

// New builds a Store for the configured backend kind.
func New(cfg Config) *Store {
	st := &Store{
		kind:         cfg.Kind,
		policy:       cfg.Policy,
		env:          cfg.Env,
		dev:          cfg.Dev,
		phys:         cfg.Phys,
		inj:          cfg.Inj,
		readOps:      cfg.Met.Counter(metrics.SwapReadOps),
		readSectors:  cfg.Met.Counter(metrics.SwapReadSectors),
		writeOps:     cfg.Met.Counter(metrics.SwapWriteOps),
		writeSectors: cfg.Met.Counter(metrics.SwapWriteSectors),
	}
	if cfg.Kind == HDD {
		return st
	}
	st.sbReadOps = cfg.Met.Counter(metrics.SwapbackReadOps)
	st.sbWriteOps = cfg.Met.Counter(metrics.SwapbackWriteOps)
	st.histRead = cfg.Met.Histogram(metrics.HistSwapbackRead)
	st.histWrite = cfg.Met.Histogram(metrics.HistSwapbackWrite)
	switch cfg.Kind {
	case SSD:
		st.slow = newSSDTier(cfg)
	case Remote:
		st.slow = newRemoteTier(cfg)
	case Zswap:
		st.slow = &hddSlow{dev: cfg.Dev, env: cfg.Env, phys: cfg.Phys}
		st.fast = newZswapPool(cfg)
		if cfg.Policy == PolicyHot {
			st.heat = newHeatRing(heatRingSize)
			st.promote = cfg.Met.Counter(metrics.SwapbackPromotePages)
		}
	}
	return st
}

// SetOwnerKey installs the slot-to-page-identity resolver (hostmm wires
// this to the swap area's owner records).
func (st *Store) SetOwnerKey(fn func(int64) uint64) { st.ownerKey = fn }

func (st *Store) pageKey(slot int64) uint64 {
	if st.ownerKey != nil {
		return st.ownerKey(slot)
	}
	return uint64(slot)
}

// SubmitRead enqueues a read of a contiguous ascending run of allocated
// slots and returns its completion time without blocking.
func (st *Store) SubmitRead(slots []int64) sim.Time {
	if st.kind == HDD {
		done := st.dev.Submit(disk.Read, st.phys(slots[0]), len(slots))
		st.readOps.Inc()
		st.readSectors.Add(int64(len(slots)) * disk.SectorsPerBlock)
		return done
	}
	now := st.env.Now()
	st.readOps.Inc()
	st.readSectors.Add(int64(len(slots)) * disk.SectorsPerBlock)
	st.sbReadOps.Inc()
	var done sim.Time
	if st.fast == nil {
		done = st.slow.submit(disk.Read, slots[0], len(slots))
	} else {
		done = st.fastRead(slots)
	}
	st.histRead.Observe(done.Sub(now))
	return done
}

// SubmitRead1 reads a single slot (the injected-failure retry path).
func (st *Store) SubmitRead1(slot int64) sim.Time {
	st.scratch[0] = slot
	return st.SubmitRead(st.scratch[:1])
}

// SubmitWrite enqueues an asynchronous writeback of a contiguous ascending
// run of slots. Completion is not reported: swap writeback pressure is felt
// through Backlog, exactly as the pre-backend code felt the device queue.
func (st *Store) SubmitWrite(slots []int64) {
	if st.kind == HDD {
		st.dev.Submit(disk.Write, st.phys(slots[0]), len(slots))
		st.writeSectors.Add(int64(len(slots)) * disk.SectorsPerBlock)
		st.writeOps.Inc()
		return
	}
	now := st.env.Now()
	st.writeSectors.Add(int64(len(slots)) * disk.SectorsPerBlock)
	st.writeOps.Inc()
	st.sbWriteOps.Inc()
	if st.fast == nil {
		done := st.slow.submit(disk.Write, slots[0], len(slots))
		st.histWrite.Observe(done.Sub(now))
		return
	}
	// Zswap placement: admit what the policy allows into the compressed
	// pool; everything else (incompressible, over capacity, policy-cold)
	// falls through to the slow tier in maximal contiguous sub-runs.
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		done := st.slow.submit(disk.Write, slots[runStart], end-runStart)
		st.histWrite.Observe(done.Sub(now))
		runStart = -1
	}
	for i, s := range slots {
		stored := false
		switch st.policy {
		case PolicyFlat:
			// fast tier disabled
		case PolicyHot:
			if key := st.pageKey(s); st.heat.contains(key) && st.fast.store(s, key) {
				stored = true
				st.promote.Inc()
			}
		default: // PolicyWriteback
			stored = st.fast.store(s, st.pageKey(s))
		}
		if stored {
			flush(i)
		} else if runStart < 0 {
			runStart = i
		}
	}
	flush(len(slots))
}

// fastRead services a read run against the compressed pool, falling back
// to the slow tier for missing (or corrupted) slots in contiguous
// sub-runs. Fast hits keep their entries (swap-cache semantics: the slot
// still holds the content until it is freed).
func (st *Store) fastRead(slots []int64) sim.Time {
	now := st.env.Now()
	nFast := 0
	var slowDone sim.Time
	runStart := -1
	flush := func(end int) {
		if runStart < 0 {
			return
		}
		if done := st.slow.submit(disk.Read, slots[runStart], end-runStart); done > slowDone {
			slowDone = done
		}
		runStart = -1
	}
	for i, s := range slots {
		if st.fast.contains(s) {
			if st.inj.DiskError(false) {
				// Injected corruption of the compressed copy: drop the
				// entry and degrade to a slow-tier read at the slot's
				// address (the backing copy, in this abstraction).
				st.fast.drop(s)
				st.fast.corrupt.Inc()
				if runStart < 0 {
					runStart = i
				}
				continue
			}
			st.fast.load.Inc()
			nFast++
			flush(i)
			continue
		}
		if runStart < 0 {
			runStart = i
		}
	}
	flush(len(slots))
	done := now.Add(sim.Duration(nFast) * st.fast.decompress)
	if slowDone > done {
		done = slowDone
	}
	return done
}

// WaitFor blocks p until a previously submitted request completes,
// charging the stall to the disk-wait phase (for non-HDD backends the
// phase reads as "time blocked on the swap backend").
func (st *Store) WaitFor(p *sim.Proc, done sim.Time) { st.dev.WaitFor(p, done) }

// Backlog reports how far the backend's writeback queue runs ahead of the
// clock; direct reclaim throttles on it (congestion_wait).
func (st *Store) Backlog() sim.Duration {
	if st.kind == HDD {
		return st.dev.FreeAt().Sub(st.env.Now())
	}
	if st.fast != nil {
		// The compressed pool absorbs writes instantly; only the slow
		// tier's queue can back up.
		return st.slow.backlog()
	}
	return st.slow.backlog()
}

// Free drops any fast-tier copy of the slot; hostmm wires it to the swap
// area's slot-free hook. No-op for single-tier backends.
func (st *Store) Free(slot int64) {
	if st.fast != nil {
		st.fast.drop(slot)
	}
}

// NoteRefault records that the page at slot was just faulted back in;
// under PolicyHot this earns the page fast-tier placement on its next
// eviction (promotion on re-fault). Call while the slot is still
// allocated so the page identity resolves.
func (st *Store) NoteRefault(slot int64) {
	if st.heat == nil {
		return
	}
	st.heat.add(st.pageKey(slot))
}

// BackgroundTick runs the backend's periodic work off the kswapd
// interval: zswap demotes its oldest entries to the slow tier when the
// pool nears capacity. No-op for other backends.
func (st *Store) BackgroundTick() {
	if st.fast == nil {
		return
	}
	z := st.fast
	if z.usedBytes <= z.capBytes*9/10 {
		return
	}
	now := st.env.Now()
	for z.usedBytes > z.capBytes*7/10 {
		slot, ok := z.popOldest()
		if !ok {
			break
		}
		done := st.slow.submit(disk.Write, slot, 1)
		st.writeOps.Inc()
		st.writeSectors.Add(disk.SectorsPerBlock)
		st.histWrite.Observe(done.Sub(now))
		z.demoted.Inc()
	}
}

// hddSlow adapts the machine's disk.Device as a slot-addressed slow tier
// (zswap's backing store). The device carries its own injector, so
// injected disk faults reach this path without extra wiring.
type hddSlow struct {
	dev  *disk.Device
	env  *sim.Env
	phys func(int64) int64
}

func (t *hddSlow) submit(kind disk.Kind, slot int64, n int) sim.Time {
	return t.dev.Submit(kind, t.phys(slot), n)
}

func (t *hddSlow) backlog() sim.Duration {
	return t.dev.FreeAt().Sub(t.env.Now())
}

// injectXfer mirrors disk.Device's injected-error handling for tiers that
// bypass the Device: a latency spike plus bounded-backoff retries, each
// retry re-paying the base transfer cost. Returns the extra service time.
func injectXfer(inj *fault.Injector, write bool, base sim.Duration, retriesC, exhaustedC *metrics.Counter, histBackoff *metrics.Histogram) sim.Duration {
	if inj == nil {
		return 0
	}
	extra := inj.DiskDelay()
	for retries := 0; inj.DiskError(write); {
		if retries == xferMaxRetries {
			exhaustedC.Inc()
			break
		}
		backoff := xferRetryBackoff << retries
		retries++
		extra += backoff + base
		retriesC.Inc()
		histBackoff.Observe(backoff)
	}
	return extra
}
