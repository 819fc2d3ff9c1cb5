package core

import "vswapsim/internal/hostmm"

// emuPage is an emulation buffer's page and the buffer's handle in the
// Preventer's table, which the page's Emu field carries meanwhile.
type emuPage struct {
	pg *hostmm.Page
	h  uint32
}

// emuTable holds the Preventer's emulation buffers by handle: bufs[h] is
// the buffer with handle h, bufs[0] stays nil so that handle 0 names none,
// and free lists the idle handles. Handles keep hostmm's page descriptors
// free of Go pointers.
type emuTable struct {
	active int // pages under emulation
	bufs   []*emuBuf
	free   []uint32
}

// hold gives b a handle and returns it.
func (t *emuTable) hold(b *emuBuf) uint32 {
	if len(t.bufs) == 0 {
		t.bufs = append(t.bufs, nil)
	}
	if n := len(t.free); n > 0 {
		b.h = t.free[n-1]
		t.free = t.free[:n-1]
		t.bufs[b.h] = b
	} else {
		b.h = uint32(len(t.bufs))
		t.bufs = append(t.bufs, b)
	}
	return b.h
}

// drop frees b's handle and detaches it from its page.
func (t *emuTable) drop(b *emuBuf) {
	if b.pg.Emu == b.h {
		b.pg.Emu = 0
	}
	t.bufs[b.h] = nil
	t.free = append(t.free, b.h)
}
