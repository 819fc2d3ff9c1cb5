// Package cluster models a multi-host cluster on the deterministic
// simulation substrate: a scheduler packs guest specs onto N overcommitted
// hosts (each host one hyper.Machine, all sharing a single sim.Env so a
// cluster cell stays byte-reproducible), a pressure monitor samples the
// per-host swap signals the kube-soomkiller harness scrapes (pswpin/
// pswpout rates, swapped bytes vs. host memory), and a remediation policy
// reacts: MOM-style re-ballooning, live migration of the hottest guest to
// the coldest host, or soomkiller-style kills with deterministic victim
// selection. Fleet-wide per-unit workload latency lands in one histogram,
// so policies compare on p95/p99 tails — the ROADMAP's "millions of
// users" framing of VSwapper's value.
package cluster

import (
	"fmt"
	"strings"

	"vswapsim/internal/balloon"
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Packing selects the admission-time placement policy.
type Packing int

const (
	// FirstFit places each guest on the first host with commit headroom.
	FirstFit Packing = iota
	// WorstFit places on the host with the lowest commit ratio.
	WorstFit
	// BalancedPressure places on the host with the lowest (pressure,
	// commit ratio) pair; at admission (pressure zero) it degenerates to
	// worst-fit, but re-admissions after migration see live pressure.
	BalancedPressure
)

var packingNames = [...]string{"first-fit", "worst-fit", "balanced-pressure"}

func (p Packing) String() string {
	if p >= 0 && int(p) < len(packingNames) {
		return packingNames[p]
	}
	return fmt.Sprintf("Packing(%d)", int(p))
}

// ParsePacking maps a packing name to its Packing.
func ParsePacking(name string) (Packing, error) {
	for i, n := range packingNames {
		if n == name {
			return Packing(i), nil
		}
	}
	return 0, fmt.Errorf("unknown packing %q (valid: %s)", name, strings.Join(packingNames[:], ", "))
}

// Remediation selects what the monitor does about a pressured host.
type Remediation int

const (
	// RemedyNone only observes (the control arm).
	RemedyNone Remediation = iota
	// RemedyReballoon runs the MOM balloon controller on every host and
	// counts its pressure interventions.
	RemedyReballoon
	// RemedyMigrate live-migrates the hottest guest of a pressured host to
	// the coldest host with headroom, charging real transfer time.
	RemedyMigrate
	// RemedyKill kills the pressured host's largest-resident guest,
	// soomkiller-style.
	RemedyKill
)

var remediationNames = [...]string{"none", "reballoon", "migrate", "kill"}

func (r Remediation) String() string {
	if r >= 0 && int(r) < len(remediationNames) {
		return remediationNames[r]
	}
	return fmt.Sprintf("Remediation(%d)", int(r))
}

// ParseRemediation maps a remediation name to its Remediation.
func ParseRemediation(name string) (Remediation, error) {
	for i, n := range remediationNames {
		if n == name {
			return Remediation(i), nil
		}
	}
	return 0, fmt.Errorf("unknown remediation %q (valid: %s)", name, strings.Join(remediationNames[:], ", "))
}

// HostSpec sizes one host.
type HostSpec struct {
	Name     string
	MemPages int
}

// Config assembles one cluster cell. All sizes are in pages and simulated
// durations — the experiment layer applies its MB scaling before building
// one. The zero value is not valid; Guests, GuestMemPages, Hosts and Env
// are required. The cell's owner attaches any auditor or trace ring to
// the built hosts' machines.
type Config struct {
	// Seed drives every derived stream (per-host machines, per-guest
	// working sets); the cell is a pure function of it.
	Seed uint64
	// Env is the shared event loop all hosts run on. Required; the owner
	// sets its budget.
	Env *sim.Env
	// Hosts sizes the fleet.
	Hosts []HostSpec
	// Guests is how many guest specs the scheduler admits.
	Guests int
	// GuestMemPages is each guest's visible memory.
	GuestMemPages int
	// WSMinPct/WSMaxPct bound the per-guest working-set size as a percent
	// of GuestMemPages; each guest draws its own seeded value in the range
	// (heterogeneity is what creates migratable imbalance). Defaults 30/60.
	WSMinPct, WSMaxPct int
	// Units is how many workload units each guest completes (default 6).
	Units int
	// PhaseUnits, when positive, makes each guest's demand phased like the
	// paper's MapReduce guests: the guest touches its full working set for
	// PhaseUnits units, then a quarter of it for 2×PhaseUnits units, on a
	// seeded phase offset. Hosts whose guests' hot phases collide build
	// real, transient pressure that migration can relieve; zero keeps the
	// steady working set.
	PhaseUnits int
	// UnitCompute is the pure-CPU cost of one unit (default 20ms).
	UnitCompute sim.Duration
	// Stagger separates guest admissions (default 250ms).
	Stagger sim.Duration
	// GuestDiskBlocks sizes each guest's disk image (default 16384 blocks
	// = 64 MB); migrations consume a fresh image region per re-homing.
	GuestDiskBlocks int64

	// Packing is the admission placement policy.
	Packing Packing
	// Remediation is what the monitor does under pressure.
	Remediation Remediation
	// MaxCommitFactor bounds per-host commit (sum of placed guests'
	// memory) as a multiple of host memory (default 2.0). Admission and
	// migration never exceed it; the invariant checker enforces that.
	MaxCommitFactor float64
	// SampleInterval is the monitor period (default 1s).
	SampleInterval sim.Duration
	// PressureThreshold in (0, 1]: the pressure score above which the
	// monitor remediates (default 0.3).
	PressureThreshold float64
	// Cooldown is the minimum gap between remediations of one host
	// (default 4s).
	Cooldown sim.Duration

	// Scheme knobs, mirroring the experiment layer's schemes.
	Mapper    bool
	Preventer bool
	Balloon   bool

	// Host is the template every host machine is built from (swap tier,
	// tiering policy, fault plan, host MM knobs). New copies it per host
	// and sets the copy's Seed (derived from Seed and the host name), Env
	// and HostMemPages.
	Host hyper.MachineConfig
	// Spec is the human-readable replay spec embedded in invariant-
	// violation panics alongside the seed.
	Spec string
}

func (cfg Config) withDefaults() Config {
	if cfg.WSMinPct == 0 {
		cfg.WSMinPct = 30
	}
	if cfg.WSMaxPct == 0 {
		cfg.WSMaxPct = 60
	}
	if cfg.Units == 0 {
		cfg.Units = 6
	}
	if cfg.UnitCompute == 0 {
		cfg.UnitCompute = 20 * sim.Millisecond
	}
	if cfg.Stagger == 0 {
		cfg.Stagger = 250 * sim.Millisecond
	}
	if cfg.GuestDiskBlocks == 0 {
		cfg.GuestDiskBlocks = 16384
	}
	if cfg.MaxCommitFactor == 0 {
		cfg.MaxCommitFactor = 2.0
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = sim.Second
	}
	if cfg.PressureThreshold == 0 {
		cfg.PressureThreshold = 0.3
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 4 * sim.Second
	}
	return cfg
}

// Host is one machine plus the scheduler's view of it.
type Host struct {
	Idx  int
	Name string
	M    *hyper.Machine
	// MemPages mirrors the machine's physical size; bound is the commit
	// ceiling (MaxCommitFactor × MemPages).
	MemPages int
	bound    int
	// commit is the pages of guest memory assigned to this host, counting
	// in-flight migration reservations. Never exceeds bound.
	commit int
	// Monitor state: last swap counter readings and the derived score.
	lastIn, lastOut int64
	pressure        float64
	lastRemedy      sim.Time
	remedied        bool
	mom             *balloon.Manager
}

// Commit reports the pages of guest memory currently assigned (including
// in-flight migration reservations).
func (h *Host) Commit() int { return h.commit }

// CommitBound reports the commit ceiling.
func (h *Host) CommitBound() int { return h.bound }

// Guest is one admitted guest spec and its current residence.
type Guest struct {
	Idx      int
	Name     string
	MemPages int
	// WSPages is the seeded per-guest hot working-set size; in phased mode
	// the guest touches WSPages/4 during its cold phases.
	WSPages int
	// stride is the base page-walk step, coprime with the walk length:
	// each unit visits the working set in a scattered order so a pressured
	// host pays seek-bound swap-ins instead of one prefetch-friendly
	// stream.
	stride int
	// phase is the seeded hot-phase offset in [0, 3).
	phase int
	Units int

	admitted    sim.Time // when the guest's driver started on its first host
	host        *Host
	dest        *Host // in-flight migration target (commit already reserved)
	vm          *hyper.VM
	pr          *guest.Process
	incarnation int

	unitsDone   int
	placements  int
	migrations  int
	killReq     bool // soomkiller marked it; the driver kills at the next unit boundary
	killed      bool
	oomKilled   bool // the guest's own OOM killer got it (not soomkiller)
	unitsAtKill int
	done        bool
}

// Host returns the guest's current host (nil once killed or done).
func (g *Guest) Host() *Host { return g.host }

// Killed reports whether the guest was killed (by either killer).
func (g *Guest) Killed() bool { return g.killed }

// Done reports whether the guest completed all its units.
func (g *Guest) Done() bool { return g.done }

// UnitsDone reports completed workload units.
func (g *Guest) UnitsDone() int { return g.unitsDone }

// KilledLatency is the workload latency recorded for a killed guest: its
// work never completes, so the observation lands in the latency
// histogram's top bucket (~3.2 virtual days), far above any real
// completion. Reports render quantiles at or above it as unbounded.
const KilledLatency = sim.Duration(1) << 47

// Cluster is one running cluster cell.
type Cluster struct {
	Cfg    Config
	Env    *sim.Env
	Met    *metrics.Set // fleet-level cluster.* counters + unit histogram
	Hosts  []*Host
	Guests []*Guest

	unitHist  *metrics.Histogram
	guestHist *metrics.Histogram
	mono      map[string]int64
	remaining int
	stopped   bool
}

// clusterMonotone lists the fleet counters the invariant checker requires
// to never decrease.
var clusterMonotone = []string{
	metrics.ClusterPlacements,
	metrics.ClusterUnits,
	metrics.ClusterMigrations,
	metrics.ClusterMigrateRefused,
	metrics.ClusterKills,
	metrics.ClusterReballoons,
	metrics.ClusterPressureEvents,
}

// New assembles the cluster: hosts on the shared env, guest specs with
// seeded working sets, and every guest placed exactly once by the packing
// policy. It panics (with the replay spec) if the config cannot pack —
// that is a configuration error, not a runtime state.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Env == nil {
		panic("cluster: Config.Env is required (hosts share one event loop)")
	}
	if len(cfg.Hosts) == 0 || cfg.Guests <= 0 || cfg.GuestMemPages <= 0 {
		panic("cluster: Hosts, Guests and GuestMemPages are required")
	}
	c := &Cluster{
		Cfg:  cfg,
		Env:  cfg.Env,
		Met:  metrics.NewSet(),
		mono: make(map[string]int64),
	}
	c.unitHist = c.Met.Histogram(metrics.HistClusterUnit)
	c.guestHist = c.Met.Histogram(metrics.HistClusterGuest)

	for i, hs := range cfg.Hosts {
		mc := cfg.Host
		mc.Seed = sim.DeriveSeed(cfg.Seed, "host", hs.Name)
		mc.Env = cfg.Env
		mc.HostMemPages = hs.MemPages
		c.Hosts = append(c.Hosts, &Host{
			Idx:      i,
			Name:     hs.Name,
			M:        hyper.NewMachine(mc),
			MemPages: hs.MemPages,
			bound:    int(cfg.MaxCommitFactor * float64(hs.MemPages)),
		})
	}

	span := cfg.WSMaxPct - cfg.WSMinPct + 1
	if span < 1 {
		span = 1
	}
	for i := 0; i < cfg.Guests; i++ {
		name := fmt.Sprintf("g%d", i)
		pct := cfg.WSMinPct + int(sim.DeriveSeed(cfg.Seed, "ws", name)%uint64(span))
		g := &Guest{
			Idx:      i,
			Name:     name,
			MemPages: cfg.GuestMemPages,
			WSPages:  cfg.GuestMemPages * pct / 100,
			Units:    cfg.Units,
		}
		g.stride = coprimeStride(g.WSPages)
		g.phase = int(sim.DeriveSeed(cfg.Seed, "phase", name) % 3)
		c.Guests = append(c.Guests, g)
	}

	// Admission: every guest placed exactly once, respecting the commit
	// bound. Guests are admitted in index order so placement is a pure
	// function of (seed, config).
	for _, g := range c.Guests {
		h := c.pickHost(g.MemPages, nil)
		if h == nil {
			c.violate(fmt.Errorf("admission cannot place guest %s: %d pages on no host within the commit bound", g.Name, g.MemPages))
		}
		g.host = h
		g.placements++
		h.commit += g.MemPages
		c.Met.Inc(metrics.ClusterPlacements)
	}
	c.remaining = len(c.Guests)
	return c
}

// pickHost returns the packing policy's choice among hosts with commit
// headroom for memPages, or nil. exclude (may be nil) is skipped —
// migration never targets the pressured source.
func (c *Cluster) pickHost(memPages int, exclude *Host) *Host {
	var best *Host
	for _, h := range c.Hosts {
		if h == exclude || h.commit+memPages > h.bound {
			continue
		}
		if best == nil {
			best = h
			if c.Cfg.Packing == FirstFit {
				return best
			}
			continue
		}
		switch c.Cfg.Packing {
		case WorstFit:
			if ratio(h) < ratio(best) {
				best = h
			}
		case BalancedPressure:
			if h.pressure < best.pressure ||
				(h.pressure == best.pressure && ratio(h) < ratio(best)) {
				best = h
			}
		}
	}
	return best
}

func ratio(h *Host) float64 { return float64(h.commit) / float64(h.bound) }

// Run drives the cell to completion: guests boot staggered, the monitor
// samples, remediations fire, and the loop drains once every guest is
// done or dead and every host daemon has shut down.
func (c *Cluster) Run() {
	if c.Cfg.Balloon || c.Cfg.Remediation == RemedyReballoon {
		c.startMOM()
	}
	c.Env.Go("cluster-admit", func(p *sim.Proc) {
		for _, g := range c.Guests {
			c.startGuest(g)
			p.Sleep(c.Cfg.Stagger)
		}
	})
	c.Env.Go("cluster-monitor", func(p *sim.Proc) {
		for !c.stopped {
			p.Sleep(c.Cfg.SampleInterval)
			if c.stopped {
				return
			}
			c.sample(p.Now())
			c.checkOrPanic()
		}
	})
	c.Env.Run()
}

// finish shuts the cluster down once the last guest completes. Guests
// that were killed never served their workload: their latency is
// unbounded, recorded as KilledLatency in the histogram's top bucket — a
// policy that murders guests pays for it in the fleet-wide percentiles it
// is judged on. The sentinel must not depend on the cell's own drain time
// (a kill policy drains early, which would censor its victims at a
// *smaller* value than surviving guests under other policies).
func (c *Cluster) finish() {
	c.stopped = true
	for _, g := range c.Guests {
		if g.killed {
			c.guestHist.Observe(KilledLatency)
		}
	}
	for _, h := range c.Hosts {
		if h.mom != nil {
			h.mom.Stop()
		}
		h.M.Shutdown()
	}
}

// UnitP95 and UnitP99 report the fleet-wide per-unit workload latency
// quantiles in nanoseconds.
func (c *Cluster) UnitP95() int64 { return c.unitHist.P95() }
func (c *Cluster) UnitP99() int64 { return c.unitHist.P99() }

// GuestP95 and GuestP99 report the fleet-wide per-guest workload latency
// quantiles in nanoseconds: admission to completion, with killed guests
// recorded as KilledLatency (see finish).
func (c *Cluster) GuestP95() int64 { return c.guestHist.P95() }
func (c *Cluster) GuestP99() int64 { return c.guestHist.P99() }

// Counter reads one fleet-level counter.
func (c *Cluster) Counter(name string) int64 { return c.Met.Get(name) }

// FleetReport packages the fleet-level counters and the unit-latency
// histogram as a RunReport, reported alongside the per-host machine
// reports.
func (c *Cluster) FleetReport() *hyper.RunReport {
	return hyper.ReportFromSet(c.Cfg.Seed, c.Met, c.Env.Now())
}

// violate panics with the replay coordinates; every invariant failure and
// configuration error routes through it.
func (c *Cluster) violate(err error) {
	panic(fmt.Sprintf("cluster: invariant violation (replay with seed=%d spec=%q): %v",
		c.Cfg.Seed, c.Cfg.Spec, err))
}

// checkOrPanic runs the cluster invariants and panics with replay
// coordinates on the first violation (the shielded cell converts it into
// a FailureRecord).
func (c *Cluster) checkOrPanic() {
	if err := c.Check(); err != nil {
		c.violate(err)
	}
}
