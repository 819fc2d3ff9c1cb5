package fault

import (
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Injector draws scheduled faults for one simulated machine. It owns a
// private PRNG — it never draws from the simulation environment's stream —
// so enabling injection perturbs nothing except the faults themselves.
//
// A nil *Injector is the "off" state: every method is nil-receiver-safe
// and returns the no-fault answer without any work, so consumers thread
// injectors unconditionally and pay nothing when injection is disabled.
type Injector struct {
	plan Plan
	rng  *sim.RNG
	met  *metrics.Set
	// disarmed suppresses firing while still advancing nothing: a disarmed
	// injector draws no randomness, so arming it mid-run (scenario
	// inject_faults events) perturbs only post-arming behavior.
	disarmed bool
}

// New builds an injector for the plan, or nil when the plan is empty (the
// zero-overhead off state). Seed the stream with
// sim.DeriveSeed(machineSeed, "fault-injector") so serial and parallel
// runs draw identically.
func New(plan Plan, seed uint64, met *metrics.Set) *Injector {
	if plan.Empty() {
		return nil
	}
	if met == nil {
		met = metrics.NewSet()
	}
	return &Injector{plan: plan, rng: sim.NewRNG(seed), met: met}
}

// SetEnabled arms or disarms the injector. Nil-receiver-safe (a nil
// injector stays off). While disarmed, fire draws nothing from the
// injector's PRNG stream, so the schedule after arming is identical to
// that of an injector created at the arming instant with the same seed.
func (in *Injector) SetEnabled(v bool) {
	if in != nil {
		in.disarmed = !v
	}
}

// Plan returns the injector's plan (the zero Plan for a nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// fire draws kind k once: true with probability plan.Rate(k), counting the
// firing. Inactive kinds draw nothing, keeping streams independent of
// which other kinds are enabled elsewhere in the plan's consumers.
func (in *Injector) fire(k Kind) bool {
	if in == nil || in.disarmed {
		return false
	}
	r := in.plan.rules[k]
	if r.Rate == 0 {
		return false
	}
	if in.rng.Float64() >= r.Rate {
		return false
	}
	in.met.Inc(counterName[k])
	return true
}

// DiskError draws a device transfer error for one request.
func (in *Injector) DiskError(write bool) bool {
	if write {
		return in.fire(DiskWriteErr)
	}
	return in.fire(DiskReadErr)
}

// DiskDelay draws a latency spike, returning the extra service time to
// add (zero when no spike fires).
func (in *Injector) DiskDelay() sim.Duration {
	if in.fire(DiskLatency) {
		return in.plan.rules[DiskLatency].Extra
	}
	return 0
}

// SwapInFailure draws a transient swap-in read failure.
func (in *Injector) SwapInFailure() bool { return in.fire(SwapInFail) }

// SlotRefused draws a swap-slot allocation refusal.
func (in *Injector) SlotRefused() bool { return in.fire(SlotExhaust) }

// BalloonRefused draws a balloon inflate/deflate refusal.
func (in *Injector) BalloonRefused() bool { return in.fire(BalloonRefuse) }

// EmulationStarved draws an emulation-buffer starvation event.
func (in *Injector) EmulationStarved() bool { return in.fire(EmuStarve) }

// MapperPoisoned draws a swap-cache poisoning event for one disk read.
func (in *Injector) MapperPoisoned() bool { return in.fire(MapPoison) }
