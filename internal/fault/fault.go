// Package fault is the deterministic fault-injection layer: a parsed,
// seeded Plan of injectable adverse events (disk errors and latency
// spikes, transient swap-in failures, swap-slot exhaustion, balloon
// refusals, emulation-buffer starvation, swap-cache poisoning) plus the
// per-machine Injector that draws them from its own PRNG stream.
//
// Determinism contract: an Injector's stream is seeded with
// sim.DeriveSeed(machine seed, "fault-injector") and never touches the
// simulation environment's PRNG, so (a) identical seed + plan reproduce
// the exact same fault schedule, serial or -parallel, and (b) an empty
// plan is completely invisible — no RNG draws, no counters, no extra
// events — which the golden-report tests verify byte-for-byte.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// DiskReadErr / DiskWriteErr are device-level transfer errors; the
	// disk device absorbs them with bounded exponential-backoff retries.
	DiskReadErr Kind = iota
	DiskWriteErr
	// DiskLatency is a latency spike: the request's service time is
	// extended by the rule's Extra duration.
	DiskLatency
	// SwapInFail is a transient swap-in read failure; hostmm retries with
	// backoff and, on exhaustion, poisons the slot (degrades the page to
	// plain dirty swap).
	SwapInFail
	// SlotExhaust makes the swap-slot allocator refuse one allocation, as
	// a full/fragmenting swap device would; reclaim rotates the victim.
	SlotExhaust
	// BalloonRefuse makes the guest balloon driver's next inflate or
	// deflate step fail; the driver backs off and retries.
	BalloonRefuse
	// EmuStarve denies the Preventer an emulation buffer; the write fault
	// falls back to the ordinary eager swap-in path.
	EmuStarve
	// MapPoison marks the Mapper's swap cache untrustworthy for one disk
	// read; the request degrades to the baseline copying flow.
	MapPoison

	numKinds
)

var kindNames = [numKinds]string{
	DiskReadErr:   "disk-read-err",
	DiskWriteErr:  "disk-write-err",
	DiskLatency:   "disk-lat",
	SwapInFail:    "swapin-fail",
	SlotExhaust:   "slot-exhaust",
	BalloonRefuse: "balloon-refuse",
	EmuStarve:     "emu-starve",
	MapPoison:     "map-poison",
}

// counterName maps each kind to the metrics counter its firings increment.
var counterName = [numKinds]string{
	DiskReadErr:   metrics.FaultDiskReadErrors,
	DiskWriteErr:  metrics.FaultDiskWriteErrors,
	DiskLatency:   metrics.FaultDiskDelays,
	SwapInFail:    metrics.FaultSwapInTransient,
	SlotExhaust:   metrics.FaultSlotRefusals,
	BalloonRefuse: metrics.FaultBalloonRefusals,
	EmuStarve:     metrics.FaultEmuStarved,
	MapPoison:     metrics.FaultMapperPoisoned,
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DefaultDiskLatencyExtra is the latency-spike magnitude when a disk-lat
// rule omits its duration argument.
const DefaultDiskLatencyExtra = 2 * sim.Millisecond

// maxExtra bounds a rule's duration argument; anything longer than a
// minute of virtual time is a spec mistake, not a latency spike.
const maxExtra = 60 * sim.Second

// Rule is one active fault class in a Plan: a firing probability per draw
// plus a kind-specific duration argument (only DiskLatency uses Extra).
type Rule struct {
	Rate  float64
	Extra sim.Duration
}

// Plan is a parsed, normalized fault-injection spec. The zero Plan injects
// nothing. Plans are comparable and round-trip exactly through
// String/ParsePlan, which the fuzz target enforces.
type Plan struct {
	rules [numKinds]Rule
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p == Plan{}
}

// Rate returns the firing probability of kind k.
func (p Plan) Rate(k Kind) float64 { return p.rules[k].Rate }

// Extra returns the duration argument of kind k (zero unless set).
func (p Plan) Extra(k Kind) sim.Duration { return p.rules[k].Extra }

// String renders the canonical spec: active rules in kind order, joined
// with ";", e.g. "disk-read-err:0.01;disk-lat:0.05:2ms". ParsePlan of the
// result reproduces the plan exactly.
func (p Plan) String() string {
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		r := p.rules[k]
		if r.Rate == 0 {
			continue
		}
		s := kindNames[k] + ":" + strconv.FormatFloat(r.Rate, 'g', -1, 64)
		if k == DiskLatency {
			s += ":" + r.Extra.Std().String()
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses a -faults spec: ";"-separated rules of the form
// "kind:rate" or, for disk-lat, "kind:rate:duration" (duration in Go
// syntax, e.g. 2ms, 500us; default 2ms). Rates are probabilities in
// [0, 1]; a rate of 0 switches the rule off. The empty spec is the empty
// plan. Each kind may appear at most once.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	var have [numKinds]bool
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return Plan{}, fmt.Errorf("fault: rule %q: want kind:rate[:duration]", part)
		}
		k, ok := kindByName(strings.TrimSpace(fields[0]))
		if !ok {
			return Plan{}, fmt.Errorf("fault: unknown kind %q (known: %s)",
				fields[0], strings.Join(kindNames[:], ", "))
		}
		if have[k] {
			return Plan{}, fmt.Errorf("fault: kind %s specified twice", k)
		}
		have[k] = true
		rate, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: rule %q: bad rate: %v", part, err)
		}
		if !(rate >= 0 && rate <= 1) { // also rejects NaN
			return Plan{}, fmt.Errorf("fault: rule %q: rate must be in [0, 1]", part)
		}
		extra := sim.Duration(0)
		if len(fields) == 3 {
			if k != DiskLatency {
				return Plan{}, fmt.Errorf("fault: rule %q: only %s takes a duration", part, DiskLatency)
			}
			d, err := time.ParseDuration(strings.TrimSpace(fields[2]))
			if err != nil {
				return Plan{}, fmt.Errorf("fault: rule %q: bad duration: %v", part, err)
			}
			if d < 0 || sim.DurationOf(d) > maxExtra {
				return Plan{}, fmt.Errorf("fault: rule %q: duration out of range [0, %s]", part, maxExtra)
			}
			extra = sim.DurationOf(d)
		} else if k == DiskLatency {
			extra = DefaultDiskLatencyExtra
		}
		if rate == 0 {
			continue // normalized away: zero-rate rules never fire
		}
		p.rules[k] = Rule{Rate: rate, Extra: extra}
	}
	return p, nil
}

// Set parses spec into p, making *Plan a flag.Value.
func (p *Plan) Set(spec string) error {
	q, err := ParsePlan(spec)
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// MustParse is ParsePlan for literals in tests; it panics on error.
func MustParse(spec string) Plan {
	p, err := ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// RandomPlan derives a random, always non-empty plan from seed: each kind
// is active with probability 1/2 at a small rate (≤ ~3%), sized so every
// workload still terminates. The property tests sweep these across many
// seeds with the invariant auditor attached.
func RandomPlan(seed uint64) Plan {
	rng := sim.NewRNG(seed)
	var p Plan
	for k := Kind(0); k < numKinds; k++ {
		if rng.Uint64()&1 == 0 {
			continue
		}
		// Quantize the rate so the spec stays short and round-trips.
		rate := float64(1+rng.Intn(30)) / 1000
		r := Rule{Rate: rate}
		if k == DiskLatency {
			r.Extra = sim.Duration(1+rng.Intn(20)) * 100 * sim.Microsecond
		}
		p.rules[k] = r
	}
	if p.Empty() {
		p.rules[SwapInFail] = Rule{Rate: 0.01}
	}
	return p
}
