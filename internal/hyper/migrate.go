package hyper

import (
	"sort"

	"vswapsim/internal/disk"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/sim"
)

// MigrationPlan summarizes what live-migrating a guest would need to move,
// implementing the paper's future-work proposal (§7): hypervisors can
// migrate *memory mappings* instead of named page contents, and skip free
// and ballooned pages entirely, without any guest cooperation.
type MigrationPlan struct {
	// TotalPages is the guest's configured memory size.
	TotalPages int
	// TransferPages must be copied over the wire (anonymous content).
	TransferPages int
	// MappingOnly pages are named: only their (file, block) reference is
	// sent; the destination reads them from shared storage.
	MappingOnly int
	// SwapBacked pages live in the host swap area; their content must be
	// read and sent (or the slot migrated on shared swap).
	SwapBacked int
	// Skippable pages were never touched or are ballooned: nothing moves.
	Skippable int
}

// TransferBytes reports the bytes that cross the wire under
// mapping-migration (4 KiB per transferred page, ~16 B per mapping).
func (mp MigrationPlan) TransferBytes() int64 {
	return int64(mp.TransferPages+mp.SwapBacked)*4096 + int64(mp.MappingOnly)*16
}

// NaiveTransferBytes reports what a mapping-oblivious migration would send:
// every page that ever held content.
func (mp MigrationPlan) NaiveTransferBytes() int64 {
	return int64(mp.TransferPages+mp.SwapBacked+mp.MappingOnly) * 4096
}

// MigrationConfig parameterizes a stop-and-copy migration.
type MigrationConfig struct {
	// BandwidthMBps is the migration link speed (default 1000: 10 GbE).
	BandwidthMBps float64
	// UseMappings enables VSwapper-assisted migration: named pages move
	// as (file, block) references, untouched/ballooned pages are skipped.
	UseMappings bool
	// PerPageCPU is the marshalling cost per transferred page.
	PerPageCPU sim.Duration
	// Dest, when non-nil, makes the migration admission-checked against a
	// real destination host: if the pages that arrive resident (anonymous
	// content plus swap-backed content, which is read and shipped as
	// resident memory) cannot fit in the destination's physical memory even
	// after full reclaim — its pool capacity minus a 1/32 emergency reserve
	// — the migration is refused up front: no pages are read, no time
	// passes, the guest stays put. Arrivals that fit displace cold pages
	// through the destination's ordinary direct-reclaim path as they fault
	// in, so instantaneous free frames are deliberately not consulted. A
	// nil Dest keeps the historical notional-destination behavior.
	Dest *Machine
}

// MigrationResult is the outcome of one stop-and-copy migration.
type MigrationResult struct {
	Plan      MigrationPlan
	BytesSent int64
	// Duration is the stop-and-copy downtime: disk reads for non-resident
	// content plus wire time.
	Duration sim.Duration
	// Refused reports that the admission check against MigrationConfig.Dest
	// rejected the migration: the destination's physical memory cannot hold
	// the guest's resident set. BytesSent and Duration are zero and the
	// guest has not moved.
	Refused bool
}

// Migrate performs a stop-and-copy migration measurement: it reads every
// page whose content is not resident (from the host swap area or the disk
// image), then ships the required bytes over the link. Guest state is not
// mutated — the "destination" is notional, so experiments can compare
// strategies on identical state.
func (vm *VM) Migrate(p *sim.Proc, cfg MigrationConfig) MigrationResult {
	if cfg.BandwidthMBps == 0 {
		cfg.BandwidthMBps = 1000
	}
	if cfg.PerPageCPU == 0 {
		cfg.PerPageCPU = 500 * sim.Nanosecond
	}
	start := p.Now()
	plan := vm.PlanMigration()
	if cfg.Dest != nil {
		cap := cfg.Dest.Pool.Capacity()
		if arriving := plan.TransferPages + plan.SwapBacked; arriving > cap-cap/32 {
			// The destination could not hold the resident set this migration
			// delivers even by reclaiming everything else. Refuse
			// deterministically before any work: the refusal is a pure
			// function of (plan, destination capacity).
			return MigrationResult{Plan: plan, Refused: true}
		}
	}

	// Content that must be read before it can be sent.
	var swapSlots []int64
	var imageBlocks []int64
	pagesSent := 0
	for _, i := range vm.pages {
		if i == 0 {
			continue
		}
		switch pg := vm.M.MM.Page(i); pg.State {
		case hostmm.SwappedOut:
			swapSlots = append(swapSlots, int64(pg.SwapSlot))
			pagesSent++
		case hostmm.ResidentAnon, hostmm.Emulated:
			pagesSent++
		case hostmm.ResidentFile:
			if !cfg.UseMappings {
				pagesSent++
			}
		case hostmm.FileNonResident:
			if !cfg.UseMappings {
				imageBlocks = append(imageBlocks, int64(pg.Backing.Block))
				pagesSent++
			}
		}
	}

	readRuns := func(vals []int64, phys func(int64) int64) {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var last sim.Time
		startIdx := 0
		for i := 1; i <= len(vals); i++ {
			if i < len(vals) && vals[i] == vals[i-1]+1 {
				continue
			}
			run := vals[startIdx:i]
			done := vm.M.Dev.Submit(disk.Read, phys(run[0]), len(run))
			if done > last {
				last = done
			}
			startIdx = i
		}
		p.SleepUntil(last)
	}
	if len(swapSlots) > 0 {
		readRuns(swapSlots, vm.M.MM.Swap.Phys)
	}
	if len(imageBlocks) > 0 {
		readRuns(imageBlocks, vm.Image.Phys)
	}

	var bytes int64
	if cfg.UseMappings {
		bytes = plan.TransferBytes()
	} else {
		bytes = plan.NaiveTransferBytes()
	}
	wire := sim.Duration(float64(bytes) / (cfg.BandwidthMBps * 1e6) * 1e9)
	p.Sleep(wire + sim.Duration(pagesSent)*cfg.PerPageCPU)
	return MigrationResult{
		Plan:      plan,
		BytesSent: bytes,
		Duration:  p.Now().Sub(start),
	}
}

// PlanMigration walks the guest's pages and classifies them. It is a pure
// inspection: no simulated time passes.
func (vm *VM) PlanMigration() MigrationPlan {
	plan := MigrationPlan{TotalPages: vm.Cfg.MemPages}
	for _, i := range vm.pages {
		if i == 0 {
			plan.Skippable++
			continue
		}
		switch vm.M.MM.Page(i).State {
		case hostmm.Untouched, hostmm.Ballooned:
			plan.Skippable++
		case hostmm.ResidentFile, hostmm.FileNonResident:
			plan.MappingOnly++
		case hostmm.SwappedOut:
			plan.SwapBacked++
		case hostmm.ResidentAnon, hostmm.Emulated:
			plan.TransferPages++
		}
	}
	return plan
}
