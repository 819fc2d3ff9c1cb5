package experiment

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"vswapsim/internal/fault"
	"vswapsim/internal/scenario"
	"vswapsim/internal/swapback"
)

// This file is the one definition of the run knobs every entry point
// shares (the vswapsim forms, the vswapsimd job API): BindFlags registers
// them, Validate holds their range rules, ForScenario applies a
// scenario's declarations to them, and Key is their canonical encoding.

// Options controls experiment execution.
type Options struct {
	// Seed drives all randomness (default 42).
	Seed uint64
	// Scale multiplies all memory/file sizes; 1.0 is paper-sized. Tests
	// use smaller scales for speed.
	Scale float64
	// Quick trims sweep points / guest counts for smoke runs.
	Quick bool
	// Parallel bounds how many simulator runs execute concurrently
	// (0 = GOMAXPROCS, 1 = strictly serial). Results are bit-identical
	// regardless of the value: every fan-out job seeds its own sim.Env
	// deterministically and owns its result slot (see executor.go).
	Parallel int
	// TraceRing, when positive, attaches a bounded trace ring of this
	// capacity to every simulated machine; run reports then embed the tail
	// of the ring. Tracing never changes virtual time.
	TraceRing int
	// Faults is the deterministic fault-injection plan threaded into every
	// simulated machine (see internal/fault). The zero Plan injects
	// nothing and leaves all output byte-identical to a faultless build;
	// a non-empty plan stays bit-identical across -parallel values because
	// each machine's injector derives its stream from that machine's seed.
	Faults fault.Plan
	// Swapback selects the swap-destination tier for every simulated
	// machine (see internal/swapback). The zero value (HDD) is the raw
	// device, byte-identical to pre-backend output.
	Swapback swapback.Kind
	// SwapPolicy selects the tiering policy for backends with a fast tier.
	SwapPolicy swapback.Policy
	// AuditEvery, when positive, attaches the invariant auditor to every
	// simulated machine, checking global invariants every AuditEvery
	// simulated events (test mode; a full check is O(pages), so stride
	// accordingly). A violation fails the cell with the cell seed and the
	// fault spec so the failure replays exactly.
	AuditEvery int
	// MaxEvents, when positive, bounds every cell's simulated event
	// count. A breach kills only that cell — deterministically, at the
	// same event in serial and parallel sweeps — and records a
	// FailureRecord; sibling cells continue.
	MaxEvents uint64
	// CellTimeout, when positive, bounds every cell's wall-clock runtime.
	// A breach is fatal: the cell is killed and the remainder of the run
	// is canceled (real time is being lost), still emitting a partial
	// report marked incomplete. Unlike MaxEvents it is not deterministic.
	CellTimeout time.Duration
	// Ctx, when non-nil, cancels the whole invocation: in-flight cells
	// are aborted by their watchdogs at the next poll, queued cells are
	// skipped, and every victim is recorded as a "canceled" failure.
	Ctx context.Context
	// CancelRun, when non-nil, is invoked on a fatal breach (wall-clock
	// timeout) to cancel the remainder of the run; wire it to the cancel
	// function of Ctx.
	CancelRun context.CancelFunc

	// lim is the run-slot pool shared by everything derived from this
	// Options value; normalized creates it once per top-level invocation.
	lim *limiter
	// memo is the invocation's cell memo, created beside lim.
	memo *cellMemo
}

// The values a zero Seed or Scale stands for.
const (
	defaultSeed  = 42
	defaultScale = 1.0
)

// BindFlags registers the run knobs on fs, each writing into o. Fault
// plans, backend tiers and policies parse during fs.Parse, so a malformed
// value is a flag error.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&o.Seed, "seed", defaultSeed, "random seed")
	fs.Float64Var(&o.Scale, "scale", defaultScale, "size scale factor (1.0 = paper-sized)")
	fs.BoolVar(&o.Quick, "quick", false, "trim sweeps for a fast smoke run")
	fs.IntVar(&o.Parallel, "parallel", runtime.GOMAXPROCS(0),
		"max concurrent simulator runs (1 = serial; results are identical either way)")
	fs.IntVar(&o.TraceRing, "tracering", 0,
		"attach a trace ring of this capacity to every machine; run reports embed its tail")
	fs.Var(&o.Faults, "faults",
		"fault-injection `spec`, e.g. 'disk-read-err:0.01;disk-lat:0.05:2ms;swapin-fail:0.02'")
	fs.Var(&o.Swapback, "swapback",
		"swap-backend `tier`: "+strings.Join(swapback.KindNames(), ", ")+" (empty = hdd, the raw swap device)")
	fs.Var(&o.SwapPolicy, "swappolicy",
		"tiering `policy` for backends with a fast tier: "+strings.Join(swapback.PolicyNames(), ", ")+" (empty = writeback)")
	fs.IntVar(&o.AuditEvery, "auditevery", 0,
		"run the invariant auditor every N simulated events (0 = off; a violation aborts the run)")
	fs.Uint64Var(&o.MaxEvents, "maxevents", 0,
		"per-cell simulated-event budget; a breach kills only that cell, deterministically (0 = unlimited)")
	fs.DurationVar(&o.CellTimeout, "celltimeout", 0,
		"per-cell wall-clock budget (e.g. 30s); a breach is fatal and cancels the rest of the run (0 = unlimited)")
}

// Validate applies the knobs' range rules. A zero Scale or Parallel is
// rejected here: callers that treat zero as "unset" apply WithDefaults
// first.
func (o Options) Validate() error {
	switch {
	case !(o.Scale > 0 && o.Scale <= 16):
		return fmt.Errorf("invalid scale %v: must be in (0, 16]", o.Scale)
	case o.Parallel < 1:
		return fmt.Errorf("invalid parallel %d: must be >= 1", o.Parallel)
	case o.TraceRing < 0:
		return fmt.Errorf("invalid tracering %d: must be >= 0", o.TraceRing)
	case o.AuditEvery < 0:
		return fmt.Errorf("invalid auditevery %d: must be >= 0", o.AuditEvery)
	case o.CellTimeout < 0:
		return fmt.Errorf("invalid celltimeout %v: must be >= 0", o.CellTimeout)
	}
	return nil
}

// WithDefaults fills the knobs whose zero value means "default": seed
// 42, scale 1.0 and GOMAXPROCS-wide parallelism.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = defaultSeed
	}
	if o.Scale == 0 {
		o.Scale = defaultScale
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) normalized() Options {
	o = o.WithDefaults()
	if o.lim == nil {
		o.lim = newLimiter(o.Parallel)
		o.memo = &cellMemo{entries: map[cellKey]*memoEntry{}}
	}
	return o
}

// Key is the canonical encoding of every knob that can change a run's
// output bytes. Equal-meaning spellings encode alike: zero Seed/Scale as
// their defaults, fault plans, tiers and policies in canonical form.
// Parallel is left out because output is byte-identical at any
// parallelism; Ctx and CancelRun only stop runs. The invocation's cell
// memo keys every cell on it, and the serving daemon's cache key hashes
// it.
func (o Options) Key() string {
	o = o.WithDefaults()
	return fmt.Sprintf("seed=%d\x00scale=%g\x00quick=%t\x00tracering=%d\x00faults=%s\x00swapback=%s\x00swappolicy=%s\x00auditevery=%d\x00maxevents=%d\x00celltimeout=%d",
		o.Seed, o.Scale, o.Quick, o.TraceRing, o.Faults, o.Swapback, o.SwapPolicy,
		o.AuditEvery, o.MaxEvents, o.CellTimeout)
}

// ForScenario applies a scenario's declarations to o. A scenario that
// declares its own backend tiers or tiering policy owns that axis, so a
// non-default Swapback or SwapPolicy is a conflict. The scenario's
// top-level faults: and audit_every: fill in where o leaves them unset;
// an explicit fault plan replaces the scenario's whole fault
// configuration, inject_faults timeline events included. The declared
// tier and policy stay out of the returned options, which name the
// invocation in documents and replay commands: the run applies them
// (see withTier).
func (o Options) ForScenario(sc *scenario.Scenario) (Options, error) {
	if o.Swapback != swapback.HDD && len(sc.Backends) > 0 {
		return o, errors.New("swapback conflicts with the scenario's backend declaration")
	}
	if o.SwapPolicy != swapback.PolicyWriteback && sc.Policy != nil {
		return o, errors.New("swappolicy conflicts with the scenario's policy declaration")
	}
	return o.withScenario(sc), nil
}

// withScenario is ForScenario's fold without the conflict checks. It is
// idempotent, so runScenario can apply it to options that already went
// through ForScenario.
func (o Options) withScenario(sc *scenario.Scenario) Options {
	if o.Faults.Empty() {
		o.Faults = sc.Faults
	}
	if o.AuditEvery == 0 {
		o.AuditEvery = sc.AuditEvery
	}
	return o
}

// withTier applies a scenario's single declared backend tier and its
// tiering policy under the rule faults: and audit_every: follow: an
// option set away from its default wins, otherwise the declaration
// applies. A list of tiers is a grid axis the single-mode compiler fans
// out instead.
func (o Options) withTier(sc *scenario.Scenario) Options {
	if len(sc.Backends) == 1 && o.Swapback == swapback.HDD {
		o.Swapback = sc.Backends[0]
	}
	if sc.Policy != nil && o.SwapPolicy == swapback.PolicyWriteback {
		o.SwapPolicy = *sc.Policy
	}
	return o
}

// tierNames names the swap backend and tiering policy for documents,
// each "" at its default so default output stays byte-identical to
// pre-backend output.
func (o Options) tierNames() (backend, policy string) {
	if o.Swapback != swapback.HDD {
		backend = o.Swapback.String()
	}
	if o.SwapPolicy != swapback.PolicyWriteback {
		policy = o.SwapPolicy.String()
	}
	return backend, policy
}
