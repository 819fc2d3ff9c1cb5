// Package metrics collects the counters and latency histograms that the
// evaluation reports. Every layer of the simulator (disk, host MM, guest
// OS, hypervisor, VSwapper) increments counters in a shared Set so that an
// experiment can read, e.g., "host page faults while host code runs" the
// same way the paper does (Fig. 9b).
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Counter names used across the simulator. Keeping them centralized makes
// experiment code self-documenting and avoids typo'd string keys.
const (
	// Disk-level traffic.
	DiskOps           = "disk.ops"           // physical requests issued
	DiskReadSectors   = "disk.read.sectors"  // 512-byte sectors read
	DiskWriteSectors  = "disk.write.sectors" // 512-byte sectors written
	DiskBusy          = "disk.busy.ns"       // total device busy time
	SwapReadSectors   = "hostswap.read.sectors"
	SwapWriteSectors  = "hostswap.write.sectors" // Fig. 9d "silent writes"
	SwapReadOps       = "hostswap.read.ops"
	SwapWriteOps      = "hostswap.write.ops"
	ImageReadSectors  = "image.read.sectors"
	ImageWriteSectors = "image.write.sectors"

	// Host memory management.
	HostFaultsInHost  = "host.faults.hostctx"  // faults while host/QEMU code runs (Fig. 9b)
	HostFaultsInGuest = "host.faults.guestctx" // EPT violations while guest runs
	// HostMajorInGuest counts only the EPT violations that needed disk
	// I/O — what Fig. 9c actually plots ("every such page fault
	// immediately translates into a disk read").
	HostMajorInGuest   = "host.faults.guestctx.major"
	HostMajorFaults    = "host.faults.major" // faults requiring disk I/O
	HostMinorFaults    = "host.faults.minor"
	HostPagesScanned   = "host.reclaim.scanned" // Fig. 11c
	HostPagesReclaimed = "host.reclaim.pages"
	HostSwapOuts       = "host.swap.out.pages"
	HostSwapIns        = "host.swap.in.pages"
	HostFileDiscards   = "host.reclaim.discards" // named pages dropped without write
	HostCOWBreaks      = "host.cow.breaks"
	HostSwapPrefetched = "host.swap.prefetch.pages"
	HostFilePrefetched = "host.file.prefetch.pages"
	HostPrefetchHits   = "host.prefetch.hits"

	// Pathology-specific counters (for the demonstration experiments).
	SilentSwapWrites = "patho.silent.writes"
	StaleSwapReads   = "patho.stale.reads"
	FalseSwapReads   = "patho.false.reads"

	// Guest-side.
	GuestMajorFaults  = "guest.faults.major"
	GuestSwapOuts     = "guest.swap.out.pages"
	GuestSwapIns      = "guest.swap.in.pages"
	GuestCacheDrops   = "guest.cache.drops"
	GuestReadaheadPgs = "guest.readahead.pages"
	GuestOOMKills     = "guest.oom.kills"

	// VSwapper.
	MapperEstablish  = "vswap.mapper.assoc.established"
	MapperInvalidate = "vswap.mapper.invalidations"
	PreventerStarts  = "vswap.preventer.emulations"
	PreventerRemaps  = "vswap.preventer.remaps" // fully buffered pages (Fig. 12b)
	PreventerMerges  = "vswap.preventer.merges" // timed out / non-seq, disk merge
	PreventerWrites  = "vswap.preventer.buffered.writes"

	// Balloon.
	BalloonInflatePages = "balloon.inflate.pages"
	BalloonDeflatePages = "balloon.deflate.pages"

	// Fault injection (internal/fault). The fault.* counters split into
	// injected events (what the plan fired) and recovery behavior (what the
	// consumers did about it); all are zero — and absent from reports —
	// when injection is off.
	FaultDiskReadErrors  = "fault.disk.read.errors"
	FaultDiskWriteErrors = "fault.disk.write.errors"
	FaultDiskDelays      = "fault.disk.delays"
	FaultDiskRetries     = "fault.disk.retries"
	FaultDiskExhausted   = "fault.disk.retry.exhausted"
	FaultSwapInTransient = "fault.swapin.transient"
	FaultSwapInRetries   = "fault.swapin.retries"
	FaultSwapInPoisoned  = "fault.swapin.poisoned"
	FaultSlotRefusals    = "fault.swap.slot.refusals"
	FaultBalloonRefusals = "fault.balloon.refusals"
	FaultEmuStarved      = "fault.preventer.starved"
	FaultMapperPoisoned  = "fault.mapper.poisoned"

	// Swap-backend tiers (internal/swapback). The hostswap.* counters above
	// count every tier's swap traffic uniformly; these break out what the
	// non-default backends do with it. All are zero — and absent from
	// reports — under the default (hdd) backend.
	SwapbackReadOps                 = "swapback.read.ops"
	SwapbackWriteOps                = "swapback.write.ops"
	SwapbackFastStorePages          = "swapback.fast.store.pages"
	SwapbackFastLoadPages           = "swapback.fast.load.pages"
	SwapbackFastRejectPages         = "swapback.fast.reject.pages"
	SwapbackFastIncompressiblePages = "swapback.fast.incompressible.pages"
	SwapbackFastCorruptPages        = "swapback.fast.corrupt.pages"
	SwapbackDemotePages             = "swapback.demote.pages"
	SwapbackPromotePages            = "swapback.promote.pages"
	SwapbackRemoteTailEvents        = "swapback.remote.tail.events"

	// Cluster scheduler (internal/cluster). These live in the cluster's own
	// fleet-level Set (one per cluster cell, reported alongside the per-host
	// machine sets), so per-host reports stay byte-identical to single-host
	// runs. All monotone; the cluster invariant checker enforces that.
	ClusterPlacements     = "cluster.placements"      // guests placed at admission
	ClusterUnits          = "cluster.units"           // workload units completed fleet-wide
	ClusterMigrations     = "cluster.migrations"      // live migrations completed
	ClusterMigrateRefused = "cluster.migrate.refused" // migrations refused for lack of headroom
	ClusterKills          = "cluster.kills"           // soomkiller victim kills
	ClusterReballoons     = "cluster.reballoon.ticks" // MOM re-balloon interventions
	ClusterPressureEvents = "cluster.pressure.events" // monitor samples over threshold
	HistClusterUnit       = "cluster.unit.latency"    // fleet-wide per-unit workload latency
	HistClusterGuest      = "cluster.guest.latency"   // admission-to-completion per-guest latency

	// Per-phase simulated-time accounting (all virtual nanoseconds). These
	// answer "where does simulated time go": guest CPU execution, host
	// fault-handling CPU, blocking waits for the disk, and reclaim scans.
	// Phases overlap with each other and with idle waits, so they do not
	// sum to the final virtual time; each is a total across all processes.
	TimeGuestRun    = "time.guestrun.ns"
	TimeHostFault   = "time.hostfault.ns"
	TimeDiskWait    = "time.diskwait.ns"
	TimeReclaimScan = "time.reclaim.scan.ns"
)

// Set is a bag of named counters plus optional latency histograms. The
// zero value is not usable; create one with NewSet.
type Set struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a direct handle on one named counter. Hot paths resolve the
// handle once (one map lookup at construction time) and then update it
// with plain integer arithmetic — no string hashing, no allocation.
type Counter struct {
	name string
	v    int64
}

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v }

// Counter returns (creating if needed) a handle on the named counter.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{name: name}
		s.counters[name] = c
	}
	return c
}

// Add increments counter name by delta.
func (s *Set) Add(name string, delta int64) {
	s.Counter(name).v += delta
}

// Inc increments counter name by one.
func (s *Set) Inc(name string) { s.Add(name, 1) }

// Get returns the current value of counter name (zero if never written).
func (s *Set) Get(name string) int64 {
	if c, ok := s.counters[name]; ok {
		return c.v
	}
	return 0
}

// Snapshot returns a copy of all counters, e.g. to diff across phases.
func (s *Set) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.counters))
	for k, c := range s.counters {
		out[k] = c.v
	}
	return out
}

// Diff returns counter deltas since the given snapshot.
func (s *Set) Diff(since map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, c := range s.counters {
		if d := c.v - since[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// String renders the non-zero counters sorted by name, one per line.
func (s *Set) String() string {
	names := make([]string, 0, len(s.counters))
	for k, c := range s.counters {
		if c.v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-32s %12d\n", k, s.counters[k].v)
	}
	return b.String()
}
