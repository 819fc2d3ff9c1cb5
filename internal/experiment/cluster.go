package experiment

import (
	"fmt"
	"strconv"

	"vswapsim/internal/cluster"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
)

// This file is the cluster cell: one multi-host scheduler run (ROADMAP
// item 4) executed under the cell envelope (runCell). A cell builds N
// hyper machines on the cell's one sim.Env and the internal/cluster
// scheduler/monitor; the fan-out axis is the remediation policy, so
// clusterN and the cluster: scenario mode compare policies on fleet-wide
// p95/p99 unit latency and kill counts.

// runCluster executes one cluster cell sized by cs (MB figures
// pre-scale) on o's swap tier. The cell measures the fleet's latency
// quantiles and counters, and adds a /fleet record to its hosts'. seed,
// when nonzero, overrides o.Seed so fan-out cells get independent derived
// streams.
func runCluster(o Options, s scenario.Scheme, remedy cluster.Remediation, n int, seed uint64, cs scenario.ClusterSpec) cell {
	o = o.normalized()
	if seed == 0 {
		seed = o.Seed
	}
	label := fmt.Sprintf("cluster/%s/%s/guests%d/seed%016x", s, remedy, n, seed)

	out := cell{tier: o.Swapback, scheme: s, policy: remedy, guests: n}
	var cl *cluster.Cluster
	out.runs, out.failure = o.runCell(label, seed, func(mc hyper.MachineConfig) ([]cellHost, func() error) {
		diskBlocks := o.guestDiskBlocks(cs.DiskMB, cs.GuestMB)
		var hosts []cluster.HostSpec
		if len(cs.HostList) > 0 {
			hosts = make([]cluster.HostSpec, len(cs.HostList))
			for i, h := range cs.HostList {
				hosts[i] = cluster.HostSpec{Name: h.Name, MemPages: o.pages(h.MemMB)}
			}
		} else {
			hosts = make([]cluster.HostSpec, cs.Hosts)
			for i := range hosts {
				hosts[i] = cluster.HostSpec{
					Name:     fmt.Sprintf("host%d", i),
					MemPages: o.pages(cs.HostMB),
				}
			}
		}
		cl = cluster.New(cluster.Config{
			Seed:              seed,
			Env:               mc.Env,
			Host:              mc,
			Hosts:             hosts,
			Guests:            n,
			GuestMemPages:     o.pages(cs.GuestMB),
			WSMinPct:          cs.WSMinPct,
			WSMaxPct:          cs.WSMaxPct,
			Units:             cs.Units,
			PhaseUnits:        cs.PhaseUnits,
			UnitCompute:       sim.Duration(cs.UnitComputeMS) * sim.Millisecond,
			Stagger:           sim.Duration(cs.StaggerMS) * sim.Millisecond,
			GuestDiskBlocks:   diskBlocks,
			Packing:           cs.Packing,
			Remediation:       remedy,
			MaxCommitFactor:   cs.MaxCommitFactor,
			SampleInterval:    sim.Duration(cs.SampleSec) * sim.Second,
			PressureThreshold: cs.Threshold,
			Cooldown:          sim.Duration(cs.CooldownSec) * sim.Second,
			Mapper:            s.Mapper(),
			Preventer:         s.Preventer(),
			Balloon:           s.Balloon(),
			Spec: fmt.Sprintf("scheme=%s remediation=%s packing=%s guests=%d hosts=%d",
				s, remedy, cs.Packing, n, len(hosts)),
		})
		built := make([]cellHost, len(cl.Hosts))
		for i, h := range cl.Hosts {
			built[i] = cellHost{name: h.Name, m: h.M}
		}
		return built, func() error {
			cl.Run()
			return cl.Check()
		}
	})
	if out.failed() {
		return out
	}
	out.runs = append(out.runs, RunRecord{Label: label + "/fleet", Report: cl.FleetReport()})
	out.unitP95, out.unitP99 = cl.UnitP95(), cl.UnitP99()
	out.guestP95, out.guestP99 = cl.GuestP95(), cl.GuestP99()
	out.met = cl.Met.Snapshot()
	out.killed = int(out.met[metrics.ClusterKills])
	return out
}

// clusterLatency renders a cluster cell for the policy table. Quantiles in
// the killed-guest sentinel bucket render as "inf": that tail is censored
// kills, not a measured completion time.
func clusterLatency(c cell) string {
	q := func(ns int64) string {
		if ns >= int64(cluster.KilledLatency) {
			return "inf"
		}
		return fmt.Sprintf("%.1f", float64(ns)/1e9)
	}
	s := q(c.guestP95) + "/" + q(c.guestP99)
	if c.killed > 0 {
		s += fmt.Sprintf(" (%d killed)", c.killed)
	}
	if mig := c.met[metrics.ClusterMigrations]; mig > 0 {
		s += fmt.Sprintf(" (%d mig)", mig)
	}
	return s
}

// ClusterN compares remediation policies on an overcommitted four-host
// cluster: fleet-wide p95/p99 unit latency plus kill and migration
// counts, per guest count. Its hosts, guests, monitor tuning, policies
// and SSD tier are cluster.yaml's; the entry adds the 16-guest row.
// A -swapback set away from its default replaces the file's tier.
func ClusterN(o Options) *Report {
	o = o.normalized()
	counts := []int{16, 32}
	if o.Quick {
		counts = []int{32}
	}
	rep := &Report{
		ID:        "clusterN",
		Title:     "Cluster remediation policies under overcommit (reballoon/migrate/kill)",
		PaperNote: "beyond the paper: VSwapper at cluster scale — fleet p95/p99 unit latency per OOM-avoidance policy",
	}
	sc := clusterScenario()
	var tab *Table
	rep.cells, tab = clusterPolicies(o.withTier(sc), rep.ID, sc, counts)
	rep.Tables = append(rep.Tables, tab)
	return rep
}

// clusterPolicies runs sc's cluster stanza at each guest count with one
// column per declared remediation policy, fanned out on the worker pool,
// each cell on a seed derived from id. It returns the grid (row-major,
// counts outer) and its table.
func clusterPolicies(o Options, id string, sc *scenario.Scenario, counts []int) ([]cell, *Table) {
	o = o.normalized()
	s, remedies := sc.Schemes[0].Scheme, sc.Cluster.Remediations
	grid := make([]cell, len(counts)*len(remedies))
	o.forEach(len(grid), func(i int) {
		n, r := counts[i/len(remedies)], remedies[i%len(remedies)]
		grid[i] = runCluster(o, s, r, n, sim.DeriveSeed(o.Seed, id, s.String(), r.String(), strconv.Itoa(n)), sc.Cluster)
	})
	return grid, pivot(sc.TableTitle, "guests", grid, cell.guestsLabel, cell.policyLabel, clusterLatency)
}
