package guest

// raState is per-file readahead bookkeeping; stored OS-side so VFile stays
// a plain layout descriptor.
type raState struct {
	next int64
	win  int
}

// raWindow updates readahead state for a miss at file-relative block b and
// returns the window size (in blocks, >= 1).
func (os *OS) raWindow(f *VFile, b int64) int {
	if os.ra == nil {
		os.ra = make(map[*VFile]*raState)
	}
	st, ok := os.ra[f]
	if !ok {
		st = &raState{}
		os.ra[f] = st
	}
	if b == st.next && st.win > 0 {
		st.win *= 2
		if st.win > os.Cfg.ReadaheadMax {
			st.win = os.Cfg.ReadaheadMax
		}
	} else {
		st.win = os.Cfg.ReadaheadMin
	}
	win := st.win
	if rest := f.Blocks - b; int64(win) > rest {
		win = int(rest)
	}
	if win < 1 {
		win = 1
	}
	st.next = b + int64(win)
	return win
}

// ioBufs is the per-I/O scratch checked out from OS.ioBufs: the block run
// and target frames of one readahead window, swap-in cluster or writeback
// run, and the victims of one reclaim pass.
type ioBufs struct {
	run  []int64
	gfns []int
	wb   []wbItem
}

func (os *OS) getIOBufs() *ioBufs {
	if n := len(os.ioBufs); n > 0 {
		b := os.ioBufs[n-1]
		os.ioBufs = os.ioBufs[:n-1]
		return b
	}
	return &ioBufs{}
}

// putIOBufs returns b to the freelist.
func (os *OS) putIOBufs(b *ioBufs) {
	b.run, b.gfns, b.wb = b.run[:0], b.gfns[:0], b.wb[:0]
	os.ioBufs = append(os.ioBufs, b)
}

// ReadFile reads [off, off+n) of f through the page cache, with
// sequential readahead on misses. Offsets are in bytes.
func (t *Thread) ReadFile(f *VFile, off, n int64) {
	os := t.OS
	t.Compute(os.Cfg.SyscallCost)
	os.touchKernel(t.P)
	first := off / pageSizeBytes
	last := (off + n - 1) / pageSizeBytes
	for b := first; b <= last; b++ {
		if t.ProcKilled() {
			return
		}
		vb := f.Block(b)
		if gfn, ok := os.cache.get(vb); ok {
			os.touchLRU(gfn)
			os.Plat.TouchPage(t.P, int(gfn), false)
			t.Compute(os.Cfg.PerPageCost)
			continue
		}
		// Miss: read a readahead window of uncached blocks.
		win := os.raWindow(f, b)
		bufs := os.getIOBufs()
		run := bufs.run
		for j := 0; j < win; j++ {
			vj := f.Block(b) + int64(j)
			if b+int64(j) >= f.Blocks {
				break
			}
			if _, cached := os.cache.get(vj); cached {
				break // keep the disk request contiguous
			}
			run = append(run, vj)
		}
		gfns := bufs.gfns
		for range run {
			gfn := os.allocPage(t)
			if gfn < 0 {
				bufs.run, bufs.gfns = run, gfns
				os.putIOBufs(bufs)
				return
			}
			gfns = append(gfns, int(gfn))
		}
		os.Plat.DiskRead(t.P, gfns, run[0])
		for j, vb2 := range run {
			gfn := int32(gfns[j])
			os.insertCache(gfn, vb2, j == 0)
		}
		bufs.run, bufs.gfns = run, gfns
		os.putIOBufs(bufs)
		if len(run) > 1 {
			os.c.readahead.Add(int64(len(run) - 1))
		}
		os.c.majorFaults.Inc()
		t.Compute(os.Cfg.PerPageCost)
	}
}

// WriteFile writes [off, off+n) of f through the page cache. Whole-block
// writes overwrite without reading; partial blocks read-modify-write.
// Dirty pages are written back by Sync, reclaim, or the dirty-ratio
// throttle.
func (t *Thread) WriteFile(f *VFile, off, n int64) {
	os := t.OS
	t.Compute(os.Cfg.SyscallCost)
	os.touchKernel(t.P)
	pos := off
	end := off + n
	for pos < end {
		if t.ProcKilled() {
			return
		}
		b := pos / pageSizeBytes
		inPage := pos % pageSizeBytes
		span := int64(pageSizeBytes) - inPage
		if span > end-pos {
			span = end - pos
		}
		vb := f.Block(b)
		gfn, cached := os.cache.get(vb)
		whole := inPage == 0 && span == pageSizeBytes
		if !cached {
			ng := os.allocPage(t)
			if ng < 0 {
				return
			}
			gfn = ng
			if whole {
				// Overwrite in place: copy_to_page via REP MOVS.
				os.Plat.OverwritePage(t.P, int(gfn), true)
			} else {
				// Read-modify-write: fetch the block first.
				os.Plat.DiskRead(t.P, []int{int(gfn)}, vb)
				os.Plat.WriteSpan(t.P, int(gfn), int(inPage), int(span))
			}
			os.insertCache(gfn, vb, true)
		} else {
			os.touchLRU(gfn)
			if whole {
				os.Plat.OverwritePage(t.P, int(gfn), true)
			} else {
				os.Plat.WriteSpan(t.P, int(gfn), int(inPage), int(span))
			}
		}
		pi := &os.pages[gfn]
		if !pi.dirty {
			pi.dirty = true
			os.dirtyCount++
		}
		t.Compute(os.Cfg.PerPageCost)
		pos += span
	}
	os.throttleDirty(t)
}

// Sync writes back every dirty cached block of f (fsync).
func (t *Thread) Sync(f *VFile) {
	os := t.OS
	t.Compute(os.Cfg.SyscallCost)
	var items []wbItem
	for b := int64(0); b < f.Blocks; b++ {
		vb := f.Block(b)
		if gfn, ok := os.cache.get(vb); ok && os.pages[gfn].dirty {
			items = append(items, wbItem{gfn: gfn, block: vb})
		}
	}
	os.flushItems(t, items)
}

// throttleDirty emulates the dirty-ratio writer throttle: when too much of
// memory is dirty, the writing thread must clean some pages itself.
func (os *OS) throttleDirty(t *Thread) {
	limit := os.Cfg.MemPages * os.Cfg.DirtyRatioPct / 100
	if os.dirtyCount <= limit {
		return
	}
	// Flush the oldest dirty cache pages (scan from the inactive tail).
	var items []wbItem
	want := os.dirtyCount - limit
	for _, l := range []*gfnList{&os.inactiveFile, &os.activeFile} {
		for gfn := l.tail; gfn != nilGFN && len(items) < want; gfn = os.pages[gfn].prev {
			pi := &os.pages[gfn]
			if pi.dirty {
				items = append(items, wbItem{gfn: gfn, block: int64(pi.block)})
			}
		}
		if len(items) >= want {
			break
		}
	}
	os.flushItems(t, items)
}

// flushItems writes the given dirty cache pages back (in contiguous runs,
// sorted by block) and marks them clean; the pages stay cached.
func (os *OS) flushItems(t *Thread, items []wbItem) {
	if len(items) == 0 {
		return
	}
	sortWbByBlock(items)
	start := 0
	for i := 1; i <= len(items); i++ {
		if i < len(items) && items[i].block == items[i-1].block+1 {
			continue
		}
		run := items[start:i]
		gfns := make([]int, len(run))
		for j, w := range run {
			gfns[j] = int(w.gfn)
		}
		os.Plat.DiskWrite(t.P, gfns, run[0].block)
		start = i
	}
	for _, w := range items {
		pi := &os.pages[w.gfn]
		if pi.dirty {
			pi.dirty = false
			os.dirtyCount--
		}
	}
}

// insertCache registers a freshly-read block in the page cache.
// Demand-read pages start referenced; pure readahead pages do not.
func (os *OS) insertCache(gfn int32, vblock int64, demanded bool) {
	pi := &os.pages[gfn]
	pi.kind = kindCache
	pi.block = int32(vblock)
	pi.dirty = false
	pi.referenced = demanded
	os.cache.set(vblock, gfn)
	os.inactiveFile.pushFront(os, gfn)
}

// DropCaches releases every clean cached page (echo 3 >
// /proc/sys/vm/drop_caches), useful in experiments.
func (os *OS) DropCaches() {
	for _, l := range []*gfnList{&os.activeFile, &os.inactiveFile} {
		for l.size > 0 {
			gfn := l.back()
			pi := &os.pages[gfn]
			if pi.dirty {
				l.rotate(os, gfn)
				// A fully dirty list cannot be dropped; stop to avoid spin.
				if l.head == gfn {
					break
				}
				continue
			}
			l.remove(os, gfn)
			os.cache.del(int64(pi.block))
			os.putFree(gfn)
		}
	}
}

// sortWbByBlock sorts writeback items by destination block (insertion
// sort: batches are small).
func sortWbByBlock(items []wbItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].block < items[j-1].block; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}
