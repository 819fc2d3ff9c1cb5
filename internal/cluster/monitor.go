package cluster

import (
	"vswapsim/internal/balloon"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// This file is the pressure monitor: the kube-soomkiller metric set
// (pswpin/pswpout rates plus swapped bytes vs. host memory) sampled on
// the simulated clock, scored per host, and remediated per policy. One
// remediation per sample — always on the hottest over-threshold host —
// with a per-host cooldown, so interventions are rare, deterministic
// events rather than storms.

// sample takes one monitor pass: refresh every host's pressure score,
// count over-threshold hosts, then remediate the hottest eligible one.
func (c *Cluster) sample(now sim.Time) {
	interval := c.Cfg.SampleInterval.Seconds()
	var hottest *Host
	for _, h := range c.Hosts {
		in := h.M.Met.Get(metrics.HostSwapIns)
		out := h.M.Met.Get(metrics.HostSwapOuts)
		din, dout := in-h.lastIn, out-h.lastOut
		h.lastIn, h.lastOut = in, out
		// Swap rate: fraction of host memory swapped in+out per second.
		rate := float64(din+dout) / float64(h.MemPages) / interval
		// Swapped bytes vs. host memory: how much working set already
		// spilled to the swap tier.
		frac := float64(h.M.MM.Swap.InUse()) / float64(h.MemPages)
		h.pressure = rate + frac/2
		if h.pressure > c.Cfg.PressureThreshold {
			c.Met.Inc(metrics.ClusterPressureEvents)
			if now.Sub(h.lastRemedy) >= c.Cfg.Cooldown || !h.remedied {
				if hottest == nil || h.pressure > hottest.pressure {
					hottest = h
				}
			}
		}
	}
	if hottest != nil {
		c.remediate(hottest, now)
	}
}

// remediate applies the configured policy to one pressured host.
func (c *Cluster) remediate(h *Host, now sim.Time) {
	switch c.Cfg.Remediation {
	case RemedyNone:
		return
	case RemedyReballoon:
		// MOM is already running on every host (started at boot for this
		// policy); the intervention counter records that pressure crossed
		// the line while it was in charge.
		c.Met.Inc(metrics.ClusterReballoons)
	case RemedyMigrate:
		victim := c.hottestGuest(h)
		if victim == nil {
			return
		}
		dest := c.pickHost(victim.MemPages, h)
		if dest == nil {
			// No host has commit headroom: the migration is refused at the
			// scheduling layer, before any admission check at the target.
			c.Met.Inc(metrics.ClusterMigrateRefused)
			h.lastRemedy, h.remedied = now, true
			return
		}
		// Reserve the destination commit immediately — the in-flight
		// window double-counts the guest on source and destination so a
		// second decision cannot oversubscribe the target.
		dest.commit += victim.MemPages
		victim.dest = dest
	case RemedyKill:
		victim := c.hottestGuest(h)
		if victim == nil {
			return
		}
		victim.killReq = true
	}
	h.lastRemedy, h.remedied = now, true
}

// hottestGuest picks the deterministic remediation victim on a host: the
// guest with the most host-resident pages (the one whose eviction or
// relocation relieves the most pressure), ties broken by lowest index.
// Guests already marked for migration or death are skipped.
func (c *Cluster) hottestGuest(h *Host) *Guest {
	var victim *Guest
	for _, g := range c.Guests {
		if g.host != h || g.vm == nil || g.killed || g.done || g.killReq || g.dest != nil {
			continue
		}
		if victim == nil || g.vm.CG.Resident() > victim.vm.CG.Resident() {
			victim = g
		}
	}
	return victim
}

// startMOM launches the MOM balloon controller on every host (the
// reballoon remediation policy, and any balloon scheme).
func (c *Cluster) startMOM() {
	for _, h := range c.Hosts {
		h.mom = balloon.New(h.M)
		h.mom.Start()
	}
}
