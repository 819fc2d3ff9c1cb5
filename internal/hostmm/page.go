// Package hostmm models the host operating system's memory management as
// seen by a hosted hypervisor (KVM/QEMU style): per-guest cgroup limits,
// active/inactive LRU lists with referenced bits, anonymous vs. file-backed
// (named) pages, the host swap area with swap cache and cluster readahead,
// host file page cache with sequential readahead, and private file
// mappings with copy-on-write.
//
// All five pathologies the paper identifies (§3) — silent swap writes,
// stale swap reads, false swap reads, decayed swap sequentiality and false
// page anonymity — arise from the interactions of the mechanisms in this
// package; nothing here special-cases an experiment.
package hostmm

import (
	"fmt"
	"math"
)

// PageState enumerates where a page's content lives from the host's point
// of view.
type PageState uint8

const (
	// Untouched pages have never been written; the first access allocates
	// a zeroed frame.
	Untouched PageState = iota
	// ResidentAnon pages hold a frame and are anonymous: without EPT
	// dirty-bit support the host must assume their content differs from
	// any disk block.
	ResidentAnon
	// ResidentFile pages hold a frame and are named: clean, backed by
	// Backing, privately mapped (a write triggers a COW break).
	ResidentFile
	// SwappedOut pages live in the host swap area at SwapSlot.
	SwappedOut
	// FileNonResident pages are named but reclaimed: their content is
	// exactly the backing block, so they were discarded without a write.
	FileNonResident
	// Emulated pages are under False Reads Preventer write emulation: no
	// frame, writes buffered, prior content still at SwapSlot/Backing.
	Emulated
	// Ballooned pages were handed to the host by the guest balloon
	// driver; they have no content and no frame.
	Ballooned
)

func (s PageState) String() string {
	switch s {
	case Untouched:
		return "untouched"
	case ResidentAnon:
		return "resident-anon"
	case ResidentFile:
		return "resident-file"
	case SwappedOut:
		return "swapped"
	case FileNonResident:
		return "file-nonresident"
	case Emulated:
		return "emulated"
	case Ballooned:
		return "ballooned"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// Resident reports whether the state implies a held frame.
func (s PageState) Resident() bool {
	return s == ResidentAnon || s == ResidentFile
}

// FileID names a File registered with a Manager (Manager.NewFile). The
// zero FileID names no file.
type FileID uint32

// BlockRef names one 4 KiB block of a host-visible file (a guest disk
// image). The zero value means "no backing". File.Ref builds one.
type BlockRef struct {
	File  FileID
	Block int32
}

// Valid reports whether the reference points at a file.
func (b BlockRef) Valid() bool { return b.File != 0 }

// Page is the host's view of one page of a QEMU process: either one guest
// frame (identified by GFN) or a page of QEMU's own executable. Pages are
// created lazily on first touch, carved from their Manager's slabs.
//
// A descriptor is one 64-byte cache line and holds no Go pointers, so the
// garbage collector never scans a slab and link updates take no write
// barrier: everything it refers to is an index into a table of its
// Manager — the owning cgroup, the LRU list, the neighbouring and
// next-mapping descriptors, the in-flight fault signal and the backing
// file. Descriptor index 0 is reserved and means "none" (TestPageLayout
// pins the size and the absence of pointers).
type Page struct {
	// Owner is the index of the owning cgroup in its Manager (see
	// Manager.Owner).
	Owner uint32
	// ID is the GFN for guest pages; QEMU-internal pages use negative IDs.
	ID int32
	// idx is this descriptor's index in its Manager's page table.
	idx uint32

	State PageState
	// EPT reports whether the GPA⇒HPA entry is present, i.e. the guest
	// can access the page without a VM exit.
	EPT bool
	// Referenced is the LRU second-chance bit, set on access.
	Referenced bool
	// Dirty is the host's belief about the page differing from swap/disk.
	// Without EPT dirty bits, any guest-mapped anonymous page is dirty.
	Dirty bool
	// Pinned excludes the page from reclaim while a fault handler holds
	// it (the analogue of the Linux page lock).
	Pinned bool
	// TruthClean/TruthBlock are simulator ground truth (metrics only):
	// whether the page's actual content equals a disk block, and which.
	// The host cannot see these; they power the "silent write" counters.
	TruthClean bool

	// list is the owner's LRU list holding the page (noList if none), and
	// prev/next its neighbours there.
	list       listID
	prev, next uint32
	// SwapSlot is the host swap slot holding the content (-1 if none).
	SwapSlot int32
	// fault serializes concurrent fault-ins of the same page: while
	// nonzero, it is the handle of the signal one process broadcasts once
	// it has brought the page in, and others wait on it.
	fault uint32
	// nextMapping chains pages that map the same file block (rare:
	// happens when the guest re-reads a block into a new GFN while an
	// older named page still exists).
	nextMapping uint32
	// Emu is the Preventer's handle for its buffer while State ==
	// Emulated (0 = none); the Preventer allocates and frees it, so
	// hostmm need not know the buffer's layout.
	Emu uint32

	// Backing is the file block backing a named page.
	Backing    BlockRef
	TruthBlock BlockRef

	// Padding to one 64-byte line keeps slab entries line-aligned.
	_ [4]byte
}

// Index reports the descriptor's index in its Manager's page table: dense
// from 1, so callers can keep per-page bitsets.
func (pg *Page) Index() uint32 { return pg.idx }

// key is a stable per-page identity (cgroup registration order + page ID)
// for the swap backend: per-page properties like compressibility and heat
// must survive slot reuse, so they key by page, not by slot. IDs can be
// negative (QEMU-internal pages); sign extension keeps keys distinct.
func (pg *Page) key() uint64 {
	return uint64(pg.Owner)<<40 ^ uint64(int64(pg.ID))
}

// slot returns the page's swap slot in the swap area's int64 terms.
func (pg *Page) slot() int64 { return int64(pg.SwapSlot) }

// Descriptor slabs: 1024 pages, 64 KiB, so the unused tail of a run's last
// slab stays small.
const (
	slabBits  = 10
	slabPages = 1 << slabBits
	slabMask  = slabPages - 1
)

// pageTable carves descriptors from slabs and resolves their indices
// through a table of slab pointers. Index 0 is reserved, so list links,
// mapping chains and swap owners use 0 for "no page".
type pageTable struct {
	slabs []*[slabPages]Page
	n     uint32 // descriptors handed out, counting the reserved index 0
}

// at returns the descriptor with index i (i must have been handed out).
func (t *pageTable) at(i uint32) *Page {
	return &t.slabs[i>>slabBits][i&slabMask]
}

// alloc hands out the next zeroed descriptor.
func (t *pageTable) alloc() *Page {
	if t.n == 0 {
		t.n = 1 // reserve index 0
	}
	i := t.n
	if i == math.MaxUint32 {
		panic("hostmm: page table full")
	}
	if int(i>>slabBits) == len(t.slabs) {
		t.slabs = append(t.slabs, new([slabPages]Page))
	}
	t.n++
	pg := t.at(i)
	pg.idx = i
	return pg
}

// listID names one of a cgroup's LRU lists. A page's list field holds it;
// noList marks a page on none. Each inactive list's ID follows its active
// list's, which Touch and reclaim rely on.
type listID uint8

const (
	noList listID = iota
	activeAnon
	inactiveAnon
	activeFile
	inactiveFile
)

// pageList is an intrusive doubly-linked list of pages with O(1) removal,
// linked by descriptor index. Pages are pushed at the front; reclaim scans
// from the back (oldest).
type pageList struct {
	pages *pageTable
	name  string
	id    listID
	owner uint32 // index of the cgroup whose list this is
	head  uint32
	tail  uint32
	size  int
}

func (l *pageList) pushFront(pg *Page) {
	if pg.list != noList {
		panic("hostmm: page already on a list")
	}
	pg.list = l.id
	pg.prev = 0
	pg.next = l.head
	if l.head != 0 {
		l.pages.at(l.head).prev = pg.idx
	} else {
		l.tail = pg.idx
	}
	l.head = pg.idx
	l.size++
}

func (l *pageList) remove(pg *Page) {
	if pg.list != l.id || pg.Owner != l.owner {
		panic("hostmm: removing page from wrong list")
	}
	if pg.prev != 0 {
		l.pages.at(pg.prev).next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != 0 {
		l.pages.at(pg.next).prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	pg.list = noList
	pg.prev = 0
	pg.next = 0
	l.size--
}

// back returns the oldest page without removing it, or nil.
func (l *pageList) back() *Page {
	if l.tail == 0 {
		return nil
	}
	return l.pages.at(l.tail)
}

// rotate moves the oldest page to the front (second chance).
func (l *pageList) rotate(pg *Page) {
	l.remove(pg)
	l.pushFront(pg)
}
