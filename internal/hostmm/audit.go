package hostmm

import "fmt"

// Audit verifies the manager's internal invariants; tests call it after
// stress scenarios. It returns the first violation found, or nil.
//
// Invariants checked:
//  1. Every page on an LRU list is resident, and its list matches its kind
//     (anon lists hold ResidentAnon, file lists hold ResidentFile).
//  2. Per-cgroup resident counts equal the frames implied by the lists.
//  3. The frame pool usage equals the sum of cgroup resident counts.
//  4. Every allocated swap slot is owned by a page that records it, the
//     owner's state can legally hold a slot (SwappedOut, ResidentAnon in
//     the swap cache, or Emulated), each slot-table chunk's used count
//     equals its owned slots, and the used counts sum to the allocator's
//     in-use count.
//  5. No page is charged twice (appears on two lists).
//  6. Every clean resident-anon page has a valid swap-cache backing: a
//     page without one holds the only copy of its content, so it must be
//     dirty or eviction would silently lose it.
func (m *Manager) Audit() error {
	totalResident := 0
	for _, cg := range m.cgroups {
		listed := 0
		check := func(l *pageList, wantState PageState) error {
			n := 0
			// Walk at most size+1 links, so a cycle reads as a size mismatch.
			for i := l.head; i != 0 && n <= l.size; {
				pg := m.pages.at(i)
				i = pg.next
				n++
				if pg.list != l.id {
					return fmt.Errorf("%s: page %d has wrong list backref", l.name, pg.ID)
				}
				if pg.State != wantState {
					return fmt.Errorf("%s: page %d in state %s", l.name, pg.ID, pg.State)
				}
				if pg.Owner != cg.idx {
					return fmt.Errorf("%s: page %d owned by %s", l.name, pg.ID, m.cgroups[pg.Owner].Name)
				}
				if pg.State == ResidentAnon && !pg.Dirty && !m.swapCacheValid(pg) {
					return fmt.Errorf("%s: clean anon page %d has no swap-cache backing (slot %d)",
						l.name, pg.ID, pg.SwapSlot)
				}
			}
			if n != l.size {
				return fmt.Errorf("%s: size %d but %d nodes", l.name, l.size, n)
			}
			listed += n
			return nil
		}
		for _, id := range [...]listID{activeAnon, inactiveAnon, activeFile, inactiveFile} {
			want := ResidentAnon
			if id >= activeFile {
				want = ResidentFile
			}
			if err := check(&cg.lists[id], want); err != nil {
				return err
			}
		}
		// lazy entries hold no frames; they are not counted.
		if listed != cg.resident {
			return fmt.Errorf("cgroup %s: %d listed resident pages but %d charged",
				cg.Name, listed, cg.resident)
		}
		if cg.pinned < 0 {
			return fmt.Errorf("cgroup %s: negative pin count %d", cg.Name, cg.pinned)
		}
		totalResident += cg.resident
	}
	if totalResident != m.Pool.Used() {
		return fmt.Errorf("pool uses %d frames but cgroups charge %d", m.Pool.Used(), totalResident)
	}
	inUse := 0
	for ci, c := range m.Swap.chunks {
		if c == nil {
			continue
		}
		owned := 0
		for j, idx := range c.owner {
			if idx == 0 {
				continue
			}
			owned++
			slot := int64(ci)<<clusterBits | int64(j)
			if idx >= m.pages.n {
				return fmt.Errorf("slot %d owned by descriptor %d of %d", slot, idx, m.pages.n)
			}
			pg := m.pages.at(idx)
			if pg.slot() != slot {
				return fmt.Errorf("slot %d owner page %d records slot %d", slot, pg.ID, pg.SwapSlot)
			}
			switch pg.State {
			case SwappedOut, ResidentAnon, Emulated:
			default:
				return fmt.Errorf("slot %d owned by page %d in state %s", slot, pg.ID, pg.State)
			}
		}
		if owned != c.used {
			return fmt.Errorf("swap chunk %d counts %d used slots but holds %d owners", ci, c.used, owned)
		}
		inUse += c.used
	}
	if inUse != m.Swap.inUse {
		return fmt.Errorf("swap allocator counts %d slots in use but its chunks hold %d",
			m.Swap.inUse, inUse)
	}
	return nil
}
