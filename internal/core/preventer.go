package core

import (
	"vswapsim/internal/hostmm"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/trace"
)

// PreventerConfig holds the False Reads Preventer tunables; the defaults
// are the paper's empirically chosen values (§4.2).
type PreventerConfig struct {
	// Deadline bounds how long a page stays under write emulation after
	// its first emulated write (paper: 1 ms).
	Deadline sim.Duration
	// MaxConcurrent bounds how many pages are emulated at once (paper: 32).
	MaxConcurrent int
	// PerWriteCost is the CPU cost of emulating one trapped write.
	PerWriteCost sim.Duration
}

// DefaultPreventerConfig mirrors the paper's constants.
func DefaultPreventerConfig() PreventerConfig {
	return PreventerConfig{
		Deadline:      sim.Millisecond,
		MaxConcurrent: 32,
		PerWriteCost:  1500 * sim.Nanosecond,
	}
}

// emuBuf is the Preventer's per-page state: a page-sized, page-aligned
// buffer receiving emulated writes. Writes are expected sequential, so
// coverage is a prefix [0, covered).
type emuBuf struct {
	emuPage
	firstWrite sim.Time
	covered    int
	merging    bool
	done       *sim.Signal // broadcast when the page becomes resident
}

// Preventer eliminates false swap reads by trapping and emulating guest
// writes directed at non-resident pages, in the hope that the whole page
// gets overwritten before anyone reads it (paper §4.2).
type Preventer struct {
	MM  *hostmm.Manager
	Met *metrics.Set
	Env *sim.Env
	Cfg PreventerConfig

	emuTable
}

// NewPreventer creates a Preventer.
func NewPreventer(mm *hostmm.Manager, met *metrics.Set, env *sim.Env, cfg PreventerConfig) *Preventer {
	if cfg.Deadline == 0 {
		cfg.Deadline = DefaultPreventerConfig().Deadline
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = DefaultPreventerConfig().MaxConcurrent
	}
	if cfg.PerWriteCost == 0 {
		cfg.PerWriteCost = DefaultPreventerConfig().PerWriteCost
	}
	return &Preventer{MM: mm, Met: met, Env: env, Cfg: cfg}
}

// Active reports how many pages are currently under emulation.
func (pv *Preventer) Active() int { return pv.active }

// buf extracts the emulation state from a page.
func (pv *Preventer) buf(pg *hostmm.Page) *emuBuf { return pv.bufs[pg.Emu] }

// HandleWriteFault is called on an EPT write violation against a
// swapped-out or file-non-resident page. It returns true if the Preventer
// absorbed the access (possibly completing it synchronously); false means
// the caller must take the ordinary fault path.
//
// rep marks full-page string instructions, which are short-circuited: the
// whole page will be overwritten, so the buffer is remapped immediately.
func (pv *Preventer) HandleWriteFault(p *sim.Proc, pg *hostmm.Page, off, n int, rep bool) bool {
	if pv.MM.Inj.EmulationStarved() {
		// Injected buffer starvation: behave as if no emulation buffer
		// could be allocated and fall back to the eager swap-in path.
		return false
	}
	if rep || (off == 0 && n >= mem.PageSize) {
		// Guaranteed full overwrite: skip buffering entirely. The remap
		// charges its frame before the page leaves the non-resident state
		// (never exposing a bufferless Emulated page while the charge
		// blocks in reclaim); if a concurrent fault resolved the page
		// meanwhile, the write goes back to the ordinary fault path.
		return pv.MM.RemapOverwrite(p, pg)
	}
	if off != 0 {
		// First write not at the page start: the sequential-fill bet is
		// already lost; do not start emulating.
		return false
	}
	if pv.active >= pv.Cfg.MaxConcurrent {
		return false
	}
	pv.MM.BeginEmulation(pg)
	if pv.MM.Trace.Recording(trace.Preventer) {
		pv.MM.Trace.Add(pv.Env.Now(), trace.Preventer, "emulate gfn=%d", pg.ID)
	}
	b := &emuBuf{emuPage: emuPage{pg: pg}, firstWrite: pv.Env.Now(), done: sim.NewSignal(pv.Env)}
	pg.Emu = pv.hold(b)
	pv.active++
	pv.Met.Inc(metrics.PreventerStarts)
	pv.applyWrite(p, b, off, n)
	if pg.State == hostmm.Emulated {
		pv.armDeadline(b)
	}
	return true
}

// OnAccess handles any guest access to a page already under emulation.
// Writes extend the buffer; reads are served from it when covered;
// anything else forces a merge, blocking the accessor until the old
// content arrives.
func (pv *Preventer) OnAccess(p *sim.Proc, pg *hostmm.Page, write bool, off, n int, rep bool) {
	b := pv.buf(pg)
	if b.merging {
		pv.waitResident(p, b)
		return
	}
	if write {
		if rep || (off == 0 && n >= mem.PageSize) {
			pv.finishRemap(p, b)
			return
		}
		pv.applyWrite(p, b, off, n)
		return
	}
	// Read: serve from the buffer if the bytes were written; otherwise we
	// need the old content.
	if off+n <= b.covered {
		p.Sleep(pv.Cfg.PerWriteCost)
		pv.Met.Inc(metrics.PreventerWrites) // emulated accesses counter
		return
	}
	pv.startMerge(b)
	pv.waitResident(p, b)
}

// ForceFinalize ends emulation right now. keepContent selects a merge
// (content preserved: needed before the page is read via DMA) versus a
// remap (content about to be superseded: virtio read targets, balloon).
func (pv *Preventer) ForceFinalize(p *sim.Proc, pg *hostmm.Page, keepContent bool) {
	b := pv.buf(pg)
	if b.merging {
		pv.waitResident(p, b)
		return
	}
	if !keepContent {
		pv.finishRemap(p, b)
		return
	}
	pv.startMerge(b)
	pv.waitResident(p, b)
}

// applyWrite buffers one emulated write.
func (pv *Preventer) applyWrite(p *sim.Proc, b *emuBuf, off, n int) {
	p.Sleep(pv.Cfg.PerWriteCost)
	pv.Met.Inc(metrics.PreventerWrites)
	if off != b.covered {
		// Non-sequential pattern: give up and merge (paper §4.2).
		pv.startMerge(b)
		pv.waitResident(p, b)
		return
	}
	b.covered += n
	if b.covered >= mem.PageSize {
		pv.finishRemap(p, b)
	}
}

// finishRemap completes emulation without any disk read: the buffer is the
// page now.
func (pv *Preventer) finishRemap(p *sim.Proc, b *emuBuf) {
	pv.MM.EmulationRemap(p, b.pg)
	pv.release(b)
}

// startMerge begins the asynchronous read of the old content; the guest
// may keep running until it touches the page again.
func (pv *Preventer) startMerge(b *emuBuf) {
	if b.merging {
		return
	}
	b.merging = true
	done := pv.MM.SubmitOldContentRead(b.pg)
	pv.Env.Go("preventer-merge", func(p *sim.Proc) {
		p.SleepUntil(done)
		if b.pg.State != hostmm.Emulated {
			return // finalized some other way meanwhile
		}
		pv.MM.EmulationMerge(p, b.pg)
		pv.release(b)
	})
}

// waitResident blocks p until the page leaves emulation.
func (pv *Preventer) waitResident(p *sim.Proc, b *emuBuf) {
	for b.pg.State == hostmm.Emulated {
		b.done.Wait(p)
	}
}

// armDeadline schedules the 1 ms bound on emulation lifetime.
func (pv *Preventer) armDeadline(b *emuBuf) {
	pv.Env.Schedule(pv.Cfg.Deadline, func() {
		if b.pg.State == hostmm.Emulated && !b.merging && pv.buf(b.pg) == b {
			pv.startMerge(b)
		}
	})
}

// release cleans up after finalization and wakes waiters. The buffer's
// lifetime — first trapped write to remap/merge completion — lands in the
// Preventer latency histogram (the paper's 1 ms deadline bounds its tail
// only when merges do not queue behind a busy disk).
func (pv *Preventer) release(b *emuBuf) {
	pv.active--
	pv.drop(b)
	b.done.Broadcast()
	pv.Met.Histogram(metrics.HistPreventerLife).Observe(pv.Env.Now().Sub(b.firstWrite))
}
