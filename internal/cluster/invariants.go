package cluster

import "fmt"

// This file is the cluster-level invariant checker, run by the monitor on
// every sample and once more by the caller after Run. It asserts the
// scheduler's global properties — the ones the 50-seed property sweep
// exercises:
//
//   - guest conservation: every guest is placed exactly once per
//     incarnation (placements == 1 + migrations), is resident on at most
//     one host, and once killed never revives or makes progress;
//   - capacity accounting: per-host commit equals the sum of assigned
//     guests (counting in-flight migration reservations on both ends —
//     the documented migration window) and never exceeds the policy
//     bound;
//   - monotone fleet counters: every cluster.* counter only moves
//     forward.
//
// A violation panics with (seed, spec) replay coordinates via violate().

// Check runs one full pass over the cluster invariants and returns the
// first violation found, or nil.
func (c *Cluster) Check() error {
	// Guest conservation.
	for _, g := range c.Guests {
		if g.placements != 1+g.migrations {
			return fmt.Errorf("guest %s: placed %d times for %d migrations (want exactly 1+migrations)",
				g.Name, g.placements, g.migrations)
		}
		if g.killed {
			if g.vm != nil || g.host != nil || g.dest != nil {
				return fmt.Errorf("guest %s: killed but still resident", g.Name)
			}
			if g.unitsDone != g.unitsAtKill {
				return fmt.Errorf("guest %s: killed at %d units but has %d (revived)",
					g.Name, g.unitsAtKill, g.unitsDone)
			}
			continue
		}
		if g.done {
			if g.vm != nil || g.host != nil {
				return fmt.Errorf("guest %s: done but still resident", g.Name)
			}
			continue
		}
		if g.host == nil {
			return fmt.Errorf("guest %s: alive but placed nowhere", g.Name)
		}
		if g.vm != nil {
			// Resident on exactly its assigned host's machine, and on no
			// other host (never double-resident mid-migration).
			for _, h := range c.Hosts {
				found := false
				for _, vm := range h.M.VMs {
					if vm == g.vm {
						found = true
						break
					}
				}
				if found != (h == g.host) {
					if found {
						return fmt.Errorf("guest %s: resident on %s but assigned to %s",
							g.Name, h.Name, g.host.Name)
					}
					return fmt.Errorf("guest %s: assigned to %s but not resident there",
						g.Name, g.host.Name)
				}
			}
		}
	}

	// Capacity accounting.
	for _, h := range c.Hosts {
		sum := 0
		for _, g := range c.Guests {
			if g.killed || g.done {
				continue
			}
			if g.host == h || g.dest == h {
				sum += g.MemPages
			}
		}
		if sum != h.commit {
			return fmt.Errorf("host %s: commit %d pages but assigned guests sum to %d",
				h.Name, h.commit, sum)
		}
		if h.commit > h.bound {
			return fmt.Errorf("host %s: commit %d pages exceeds bound %d",
				h.Name, h.commit, h.bound)
		}
	}

	// Monotone fleet counters.
	for _, name := range clusterMonotone {
		v := c.Met.Get(name)
		if v < c.mono[name] {
			return fmt.Errorf("counter %s went backwards: %d after %d", name, v, c.mono[name])
		}
		c.mono[name] = v
	}
	return nil
}
