package experiment

import (
	"fmt"
	"regexp"
	"runtime/debug"
	"strings"

	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// This file is the panic-isolation half of the run-hardening layer. Every
// simulation cell (runSingle, runDynamic, runCluster and any test fixture,
// all through runCell) executes under a shield that recovers
// panics — including the typed *sim.BudgetError a watchdog kill raises —
// and converts them into structured FailureRecords, which the failed cell
// carries. The sweep continues; sibling cells are unaffected.
//
// Determinism: a panic or an event-budget/stall kill is a pure function
// of the cell's seed and configuration, so the same cell fails
// identically in serial and parallel sweeps. The only run-to-run noise in
// a panic is incidental — pointer values and goroutine ids in messages
// and stacks — and sanitizeMessage/sanitizeStack scrub exactly that, so
// failure records serialize to identical bytes either way. Wall-clock
// kills and cancellations are inherently scheduling-dependent and carry
// no such guarantee.

// Failure kinds recorded in FailureRecord.Kind.
const (
	// FailPanic is a recovered Go panic in the cell (model bug, audit
	// violation, assertion).
	FailPanic = "panic"
	// FailWatchdogEvents is a deterministic kill: the cell exceeded the
	// simulated-event budget (-maxevents).
	FailWatchdogEvents = "watchdog:max-events"
	// FailWatchdogStall is a deterministic kill: the simulated clock
	// stopped advancing (livelock).
	FailWatchdogStall = "watchdog:stall"
	// FailWatchdogWall is a wall-clock kill (-celltimeout). Fatal: the
	// rest of the run is canceled, because real time is being lost.
	FailWatchdogWall = "watchdog:wall-timeout"
	// FailCanceled is a cell aborted (or skipped) by run cancellation
	// (SIGINT or a fatal breach elsewhere).
	FailCanceled = "canceled"
)

// FailureRecord is the structured form of one failed cell: enough to
// understand the failure (message, sanitized stack, trace tail, recent
// audit states) and to replay it (cell label, machine seed, base seed,
// fault spec).
type FailureRecord struct {
	Label     string                   `json:"label"`
	Seed      uint64                   `json:"seed"`      // machine seed of the cell
	BaseSeed  uint64                   `json:"base_seed"` // invocation -seed it derives from
	Faults    string                   `json:"faults,omitempty"`
	Kind      string                   `json:"kind"`
	Message   string                   `json:"message"`
	Stack     []string                 `json:"stack,omitempty"`
	Events    uint64                   `json:"events,omitempty"`
	SimNowNS  int64                    `json:"sim_now_ns,omitempty"`
	Trace     []hyper.TraceEventReport `json:"trace,omitempty"`
	AuditTail []string                 `json:"audit_tail,omitempty"`
}

// cellState carries the pieces of a running cell that failure capture
// needs: its first machine (for the trace-ring tail and event/clock
// position) and the source of the recent audit states (the cell's audit
// group). runCell fills it in as the pieces come to exist, so a panic at
// any stage still captures whatever was already built.
type cellState struct {
	m         *hyper.Machine
	auditTail func() []string
}

// runShielded executes one simulation cell under the hardening envelope:
// a canceled run skips the cell, and a panic — including a watchdog's
// *sim.BudgetError — is recovered, converted into a FailureRecord and
// returned. A nil return means the cell completed.
func (o Options) runShielded(label string, seed uint64, st *cellState, fn func()) (rec *FailureRecord) {
	if o.canceled() {
		rec = o.newFailure(label, seed, st)
		rec.Kind = FailCanceled
		rec.Message = "cell skipped: run canceled before it started"
		return rec
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rec = o.captureFailure(label, seed, st, r, debug.Stack())
		if rec.Kind == FailWatchdogWall {
			// A wall-clock breach means real time is being lost on a cell
			// that should long have finished; treat it as fatal and cancel
			// the remainder of the run (the partial report is still
			// emitted, marked incomplete).
			o.cancelRun()
		}
	}()
	fn()
	return nil
}

// newFailure fills the fields every failure shares, harvesting the trace
// tail and audit history from whatever the cell had built — this is what
// makes watchdog kills and panics carry the same diagnostics as the
// happy-path -json report.
func (o Options) newFailure(label string, seed uint64, st *cellState) *FailureRecord {
	rec := &FailureRecord{
		Label:    label,
		Seed:     seed,
		BaseSeed: o.Seed,
		Faults:   o.Faults.String(),
	}
	if st != nil && st.m != nil {
		rec.Events = st.m.Env.EventCount()
		rec.SimNowNS = int64(st.m.Env.Now())
		rec.Trace = st.m.Report().Trace
	}
	if st != nil && st.auditTail != nil {
		rec.AuditTail = st.auditTail()
	}
	return rec
}

// captureFailure classifies a recovered panic value into a record.
func (o Options) captureFailure(label string, seed uint64, st *cellState, r interface{}, stack []byte) *FailureRecord {
	rec := o.newFailure(label, seed, st)
	if be, ok := r.(*sim.BudgetError); ok {
		switch be.Kind {
		case sim.BreachMaxEvents:
			rec.Kind = FailWatchdogEvents
		case sim.BreachStall:
			rec.Kind = FailWatchdogStall
		case sim.BreachWall:
			rec.Kind = FailWatchdogWall
		case sim.BreachCanceled:
			rec.Kind = FailCanceled
		default:
			rec.Kind = "watchdog:" + be.Kind
		}
		rec.Message = sanitizeMessage(be.Error())
		rec.Events = be.Events
		rec.SimNowNS = int64(be.Now)
		return rec
	}
	rec.Kind = FailPanic
	rec.Message = sanitizeMessage(fmt.Sprint(r))
	rec.Stack = sanitizeStack(stack)
	return rec
}

var (
	hexValRE    = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	goroutineRE = regexp.MustCompile(`goroutine \d+`)
)

// sanitizeMessage strips the run-to-run varying parts of a panic message
// — pointer values and goroutine ids, including those inside a simulated
// process's embedded stack dump — so the same logical failure produces
// identical bytes in serial and parallel sweeps.
func sanitizeMessage(s string) string {
	s = hexValRE.ReplaceAllString(s, "0x?")
	return goroutineRE.ReplaceAllString(s, "goroutine ?")
}

// sanitizeStack converts a debug.Stack dump into deterministic frame
// lines: goroutine headers are dropped, pointer arguments and " +0x..."
// offsets scrubbed, and the trace truncated at the shield frame so the
// caller side (serial loop vs worker goroutine) cannot leak into the
// record.
func sanitizeStack(stack []byte) []string {
	var out []string
	for _, line := range strings.Split(string(stack), "\n") {
		frame := strings.TrimSpace(line)
		if frame == "" || strings.HasPrefix(frame, "goroutine ") {
			continue
		}
		frame = sanitizeMessage(frame)
		if i := strings.Index(frame, " +0x?"); i >= 0 {
			frame = frame[:i]
		}
		out = append(out, frame)
		// The shield frame (runShielded / runExperimentShielded) is the
		// boundary between the cell and the executor; everything beyond it
		// is scheduling machinery. Deferred-closure frames end in
		// ".funcN(...)" and do not match.
		if strings.Contains(frame, "Shielded(") {
			break
		}
	}
	return out
}
