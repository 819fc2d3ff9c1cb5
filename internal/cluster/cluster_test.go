package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
)

// This file is the randomized property sweep over the cluster scheduler
// (the ISSUE's 50-seed satellite): each seed draws a feasible fleet
// configuration, runs it to completion, and asserts the global properties
// the invariant checker cannot see from inside one sample — terminal
// guest states, counter/ledger agreement, and full capacity release.
// Failures print the (seed, spec) replay coordinates.

// propConfig draws one feasible cluster configuration from the seed. All
// remediations and packings are exercised round-robin on the seed index
// so a short sweep still covers every policy pair.
func propConfig(idx int, seed uint64, env *sim.Env) Config {
	r := rand.New(rand.NewSource(int64(seed)))
	hosts := 2 + r.Intn(3)
	guestPages := 256 + 128*r.Intn(3)
	// Aggregate demand never exceeds the aggregate commit bound
	// (2 hosts x 2048 pages x 2.0 = 8192 pages minimum), so admission
	// always packs: New panics on an infeasible config by design.
	guests := 6 + r.Intn(11)
	for guests*guestPages > hosts*2048*2 {
		guests--
	}
	hs := make([]HostSpec, hosts)
	for i := range hs {
		hs[i] = HostSpec{Name: fmt.Sprintf("h%d", i), MemPages: 2048}
	}
	cfg := Config{
		Seed:              seed,
		Env:               env,
		Hosts:             hs,
		Guests:            guests,
		GuestMemPages:     guestPages,
		WSMinPct:          40,
		WSMaxPct:          40 + r.Intn(51),
		Units:             4 + r.Intn(5),
		PhaseUnits:        2 * r.Intn(2), // 0 (steady) or 2 (phased)
		UnitCompute:       5 * sim.Millisecond,
		Stagger:           50 * sim.Millisecond,
		GuestDiskBlocks:   4096,
		Packing:           Packing(idx % 3),
		Remediation:       Remediation(idx % 4),
		MaxCommitFactor:   2.0,
		SampleInterval:    500 * sim.Millisecond,
		PressureThreshold: 0.05 + 0.1*float64(r.Intn(3)),
		Cooldown:          sim.Second,
		Mapper:            r.Intn(2) == 1,
		Preventer:         true,
		Host:              hyper.MachineConfig{Swapback: swapback.SSD},
	}
	cfg.Spec = fmt.Sprintf("prop hosts=%d guests=%d guest_pages=%d units=%d ws=[%d,%d] phase=%d packing=%s remediation=%s",
		hosts, guests, guestPages, cfg.Units, cfg.WSMinPct, cfg.WSMaxPct, cfg.PhaseUnits, cfg.Packing, cfg.Remediation)
	return cfg
}

// runProp executes one property cell and returns the finished cluster.
func runProp(t *testing.T, idx int, seed uint64) *Cluster {
	t.Helper()
	env := sim.NewEnv(seed)
	env.SetBudget(sim.Budget{MaxEvents: 50_000_000, WallTimeout: 2 * time.Minute})
	c := New(propConfig(idx, seed, env))
	c.Run()
	return c
}

// checkProperties asserts the post-run global properties on a finished
// cluster. Every message carries the replay coordinates.
func checkProperties(t *testing.T, c *Cluster, seed uint64) {
	t.Helper()
	at := fmt.Sprintf("(replay with seed=%#x spec=%q)", seed, c.Cfg.Spec)
	if err := c.Check(); err != nil {
		t.Fatalf("final invariants %s: %v", at, err)
	}

	// Terminal states: every guest either completed its units or was
	// killed — never both, never neither — and terminal guests hold no
	// residence.
	var done, killed, soomKilled, units, migrations, placements int
	for _, g := range c.Guests {
		switch {
		case g.Done() && g.Killed():
			t.Fatalf("guest %s both done and killed %s", g.Name, at)
		case g.Done():
			done++
			if g.UnitsDone() != g.Units {
				t.Fatalf("guest %s done with %d/%d units %s", g.Name, g.UnitsDone(), g.Units, at)
			}
		case g.Killed():
			killed++
			if g.killReq {
				soomKilled++
			}
			if g.UnitsDone() >= g.Units {
				t.Fatalf("guest %s killed after finishing all %d units %s", g.Name, g.Units, at)
			}
		default:
			t.Fatalf("guest %s terminated neither done nor killed %s", g.Name, at)
		}
		if g.Host() != nil || g.vm != nil || g.pr != nil || g.dest != nil {
			t.Fatalf("terminal guest %s still holds residence %s", g.Name, at)
		}
		units += g.UnitsDone()
		migrations += g.migrations
		placements += g.placements
	}
	if done+killed != len(c.Guests) {
		t.Fatalf("guest conservation: %d done + %d killed != %d admitted %s", done, killed, len(c.Guests), at)
	}

	// Counter/ledger agreement: the fleet counters are exactly the sums
	// of the per-guest ledgers.
	if got := c.Counter(metrics.ClusterUnits); got != int64(units) {
		t.Fatalf("cluster.units %d != summed guest units %d %s", got, units, at)
	}
	if got := c.Counter(metrics.ClusterMigrations); got != int64(migrations) {
		t.Fatalf("cluster.migrations %d != summed guest migrations %d %s", got, migrations, at)
	}
	if got := c.Counter(metrics.ClusterPlacements); got != int64(placements) {
		t.Fatalf("cluster.placements %d != summed guest placements %d %s", got, placements, at)
	}
	if got := c.Counter(metrics.ClusterPlacements); got != int64(len(c.Guests)+migrations) {
		t.Fatalf("cluster.placements %d != guests %d + migrations %d %s", got, len(c.Guests), migrations, at)
	}
	if got := c.Counter(metrics.ClusterKills); got != int64(soomKilled) {
		t.Fatalf("cluster.kills %d != soomkiller victims %d %s", got, soomKilled, at)
	}
	if int(c.Counter(metrics.ClusterKills)) > killed {
		t.Fatalf("cluster.kills %d exceeds killed guests %d %s", c.Counter(metrics.ClusterKills), killed, at)
	}

	// Policy exclusions: only the matching remediation produces its
	// signature action.
	if c.Cfg.Remediation != RemedyMigrate && migrations > 0 {
		t.Fatalf("%s remediation migrated %d guests %s", c.Cfg.Remediation, migrations, at)
	}
	if c.Cfg.Remediation != RemedyKill && soomKilled > 0 {
		t.Fatalf("%s remediation soom-killed %d guests %s", c.Cfg.Remediation, soomKilled, at)
	}

	// Capacity release: with every guest terminal, each host's commit
	// ledger must be fully drained and the commit bound was never the
	// checker's problem (Check above verifies the ledger equals the
	// assignment sum, which is now zero).
	for _, h := range c.Hosts {
		if h.Commit() != 0 {
			t.Fatalf("host %s holds %d committed pages after drain %s", h.Name, h.Commit(), at)
		}
		if h.CommitBound() != int(c.Cfg.MaxCommitFactor*float64(h.MemPages)) {
			t.Fatalf("host %s bound drifted to %d %s", h.Name, h.CommitBound(), at)
		}
	}
}

// TestClusterProperties is the randomized sweep: 50 seeds (8 under
// -short), each a feasible configuration cycling every packing and
// remediation policy.
func TestClusterProperties(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		i := i
		seed := sim.DeriveSeed(0xC1057E4, "prop", fmt.Sprintf("%d", i))
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			c := runProp(t, i, seed)
			checkProperties(t, c, seed)
		})
	}
}

// TestClusterDeterministic runs the same seed twice and requires
// identical counters and quantiles — the cell is a pure function of its
// seed even with migration and kill decisions in play.
func TestClusterDeterministic(t *testing.T) {
	for _, idx := range []int{2, 3} { // migrate and kill remediation
		idx := idx
		t.Run(Remediation(idx%4).String(), func(t *testing.T) {
			t.Parallel()
			seed := sim.DeriveSeed(0xDE7E2, "repeat", Remediation(idx%4).String())
			a := runProp(t, idx, seed)
			b := runProp(t, idx, seed)
			for _, name := range clusterMonotone {
				if a.Counter(name) != b.Counter(name) {
					t.Fatalf("counter %s differs across identical runs: %d vs %d",
						name, a.Counter(name), b.Counter(name))
				}
			}
			if a.UnitP95() != b.UnitP95() || a.GuestP99() != b.GuestP99() {
				t.Fatalf("quantiles differ across identical runs: unit p95 %d vs %d, guest p99 %d vs %d",
					a.UnitP95(), b.UnitP95(), a.GuestP99(), b.GuestP99())
			}
		})
	}
}

// TestKilledLatencySentinel pins the censoring contract: the sentinel
// lands in the histogram's top bucket, far above any real completion, so
// a kill policy's victims dominate the tail regardless of when the cell
// drained.
func TestKilledLatencySentinel(t *testing.T) {
	h := metrics.NewSet().Histogram("x")
	h.Observe(sim.Duration(30) * sim.Second) // a plausible real completion
	h.Observe(KilledLatency)
	if q := h.P99(); q < int64(KilledLatency) {
		t.Fatalf("p99 %d below the kill sentinel %d", q, int64(KilledLatency))
	}
	if int64(KilledLatency) <= int64(24*3600*sim.Second) {
		t.Fatalf("sentinel %d implausibly small", int64(KilledLatency))
	}
}
