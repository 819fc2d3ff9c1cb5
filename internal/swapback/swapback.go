// Package swapback models pluggable swap-destination tiers for the host
// memory manager. The paper's evaluation (and the original simulator) hard-
// wires host swap to one rotating drive; "Flexible Swapping for the Cloud"
// argues cloud hosts want interchangeable backends and policies. A Store
// routes the host MM's swap reads and writes to one of four deterministic
// backend models:
//
//   - hdd:    the existing disk.Device, unchanged — the default. Every
//     request is forwarded verbatim, so runs with the default backend stay
//     byte-identical to the pre-backend simulator.
//   - ssd:    a flash model with no seek or rotation: per-request overhead
//     plus per-block transfer (disk.SSD840 parameters), spread over a small
//     number of independent channels so service times are queue-depth-aware.
//   - zswap:  a compressed-RAM tier in front of the rotating drive, with
//     per-page compressibility-dependent ratios and capacity accounting
//     against the host frame pool, plus background demotion to the drive.
//   - remote: a network-attached tier (NBD/remote-memory style) with a
//     seeded tail-latency distribution over a few connections.
//
// The tiering policy decides write-path placement for backends with a fast
// tier (zswap): writeback admits everything, hotfirst admits only pages
// that re-faulted recently (promotion on re-fault), flat bypasses the fast
// tier entirely. Background demotion runs off the kswapd interval.
package swapback

import (
	"fmt"
	"sort"
	"strings"

	"vswapsim/internal/disk"
	"vswapsim/internal/fault"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Kind selects a swap backend model.
type Kind uint8

const (
	// HDD forwards every request to the machine's disk.Device unchanged.
	HDD Kind = iota
	// SSD models a SATA flash drive: no position dependence, a fixed
	// per-request overhead plus per-block transfer, over ssdChannels
	// independent channels.
	SSD
	// Zswap models a compressed-RAM pool in front of the rotating drive.
	Zswap
	// Remote models a network-attached swap target with tail latency.
	Remote
)

var kindNames = [...]string{"hdd", "ssd", "zswap", "remote"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a backend name ("hdd", "ssd", "zswap", "remote") to its
// Kind. The empty string is the default backend.
func ParseKind(name string) (Kind, error) {
	if name == "" {
		return HDD, nil
	}
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return HDD, fmt.Errorf("unknown swap backend %q (valid: %s)", name, strings.Join(KindNames(), ", "))
}

// Set parses name into k, making *Kind a flag.Value.
func (k *Kind) Set(name string) error {
	v, err := ParseKind(name)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// KindNames returns the valid backend names, sorted.
func KindNames() []string {
	out := append([]string(nil), kindNames[:]...)
	sort.Strings(out)
	return out
}

// AllKinds returns every backend kind, default first.
func AllKinds() []Kind { return []Kind{HDD, SSD, Zswap, Remote} }

// Policy selects how the write path places pages across tiers and what the
// background demoter does. Policies only matter for backends with a fast
// tier (zswap); the single-tier backends ignore them.
type Policy uint8

const (
	// PolicyWriteback admits every compressible page to the fast tier and
	// demotes the oldest entries to the slow tier in the background.
	PolicyWriteback Policy = iota
	// PolicyHot admits only pages that re-faulted recently (tracked by
	// NoteRefault): a page earns its fast-tier slot by being hot.
	PolicyHot
	// PolicyFlat bypasses the fast tier entirely — an ablation that turns
	// zswap into its slow tier.
	PolicyFlat
)

var policyNames = [...]string{"writeback", "hotfirst", "flat"}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy maps a policy name to its Policy. The empty string is the
// default (writeback).
func ParsePolicy(name string) (Policy, error) {
	if name == "" {
		return PolicyWriteback, nil
	}
	for i, n := range policyNames {
		if n == name {
			return Policy(i), nil
		}
	}
	return PolicyWriteback, fmt.Errorf("unknown swap policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}

// Set parses name into p, making *Policy a flag.Value.
func (p *Policy) Set(name string) error {
	v, err := ParsePolicy(name)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// PolicyNames returns the valid policy names, sorted.
func PolicyNames() []string {
	out := append([]string(nil), policyNames[:]...)
	sort.Strings(out)
	return out
}

// Config assembles a Store.
type Config struct {
	Kind   Kind
	Policy Policy
	// Env is the machine's simulation environment.
	Env *sim.Env
	// Met receives the backend's counters and histograms.
	Met *metrics.Set
	// Dev is the machine's physical drive: the HDD backend forwards to it,
	// and zswap uses it as the slow tier behind the compressed pool.
	Dev *disk.Device
	// Phys translates a swap slot to a physical disk block (SwapArea.Phys).
	Phys func(slot int64) int64
	// Pool is the host frame pool the zswap tier charges its compressed
	// storage against. Unused by the other backends.
	Pool *mem.FramePool
	// Inj, when non-nil, injects transfer faults into the ssd/remote tiers
	// and corruption into the compressed pool (the HDD backend's device
	// already carries its own injector).
	Inj *fault.Injector
	// Seed drives the backend's private randomness (remote tail latency,
	// per-page compressibility). Derive it per machine so serial and
	// parallel runs draw identically.
	Seed uint64
}
