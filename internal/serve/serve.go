// Package serve is the simulation-as-a-service layer (ROADMAP item 5):
// a long-running HTTP daemon (cmd/vswapsimd) that accepts experiment and
// scenario jobs, runs them on a bounded worker pool reusing the parallel
// executor, and memoizes results in a crash-safe content-addressed cache.
//
// Determinism is what makes the cache sound: the executor's output is a
// pure function of (target, seed, scale, quick, faults, backend, policy,
// trace/audit/event budgets) and byte-identical at any parallelism, so a
// cache hit can serve the stored bytes verbatim — and tests prove warm
// and cold responses identical. Robustness is the headline elsewhere:
// bounded admission (429 + Retry-After), per-job panic isolation into
// FailureRecords, per-job watchdog budgets, graceful drain with queue
// persistence for restart recovery, and slow-client-safe event streams.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/scenario"
)

// Job states, in lifecycle order. done and failed are terminal.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// terminal reports whether a job in the given state will never change
// state again.
func terminal(state string) bool { return state == StateDone || state == StateFailed }

// JobRequest is the POST /jobs body: what to run and every knob that can
// influence the result. Exactly one of ID (a registry experiment id) and
// Scenario (an inline scenario YAML document) must be set. Zero values
// take the executor defaults (seed 42, scale 1.0). Parallel is an
// execution hint only — it never enters the cache key, because results
// are byte-identical across parallelism. CellTimeoutMS arms the per-cell
// wall-clock watchdog; it too stays out of the cache key (wall kills are
// nondeterministic, and timed-out jobs are never cached).
type JobRequest struct {
	ID            string  `json:"id,omitempty"`
	Scenario      string  `json:"scenario,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	Scale         float64 `json:"scale,omitempty"`
	Quick         bool    `json:"quick,omitempty"`
	Parallel      int     `json:"parallel,omitempty"`
	TraceRing     int     `json:"tracering,omitempty"`
	Faults        string  `json:"faults,omitempty"`
	Swapback      string  `json:"swapback,omitempty"`
	SwapPolicy    string  `json:"swappolicy,omitempty"`
	AuditEvery    int     `json:"auditevery,omitempty"`
	MaxEvents     uint64  `json:"maxevents,omitempty"`
	CellTimeoutMS int64   `json:"celltimeout_ms,omitempty"`
}

// RequestFor is the one Options→JobRequest conversion the -server
// clients use: the job that runs registry experiment id, or the inline
// scenario document when id is empty, under o's knobs.
func RequestFor(id, scenarioText string, o experiment.Options) JobRequest {
	return JobRequest{
		ID: id, Scenario: scenarioText,
		Seed: o.Seed, Scale: o.Scale, Quick: o.Quick, Parallel: o.Parallel,
		TraceRing: o.TraceRing, Faults: o.Faults.String(),
		Swapback: o.Swapback.String(), SwapPolicy: o.SwapPolicy.String(),
		AuditEvery: o.AuditEvery, MaxEvents: o.MaxEvents,
		CellTimeoutMS: o.CellTimeout.Milliseconds(),
	}
}

// options is RequestFor's inverse: the request's knobs as Options, with
// the fault plan, tier and policy parsed. Zero values stay zero.
func (r JobRequest) options() (experiment.Options, error) {
	o := experiment.Options{
		Seed: r.Seed, Scale: r.Scale, Quick: r.Quick, Parallel: r.Parallel,
		TraceRing: r.TraceRing, AuditEvery: r.AuditEvery, MaxEvents: r.MaxEvents,
		CellTimeout: time.Duration(r.CellTimeoutMS) * time.Millisecond,
	}
	if err := o.Faults.Set(r.Faults); err != nil {
		return o, fmt.Errorf("invalid faults: %v", err)
	}
	if err := o.Swapback.Set(r.Swapback); err != nil {
		return o, fmt.Errorf("invalid swapback: %v", err)
	}
	if err := o.SwapPolicy.Set(r.SwapPolicy); err != nil {
		return o, fmt.Errorf("invalid swappolicy: %v", err)
	}
	return o, nil
}

// compiled is a validated job: everything the daemon derives from a
// request, computed once when the request arrives.
type compiled struct {
	req    JobRequest // seed and scale defaults filled in
	key    string
	target string // registry id or "scenario:<name>", for labels and diag bundles
	exp    experiment.Experiment
	opts   experiment.Options
}

// compile validates a request and derives its cache key, experiment and
// executor options in one pass, under cfg (with defaults applied): a zero
// Parallel takes cfg.Parallel, and the budget ceilings cap the watchdogs —
// a job may tighten them but never loosen them past the daemon's. The
// cache key is taken before the caps and the scenario's declarations
// apply, so it stays a function of the request alone (see Key). Errors
// are client-facing.
func compile(req JobRequest, cfg Config) (*compiled, error) {
	if (req.ID == "") == (req.Scenario == "") {
		return nil, errors.New(`exactly one of "id" and "scenario" must be set`)
	}
	o, err := req.options()
	if err != nil {
		return nil, err
	}
	if o.Parallel == 0 {
		o.Parallel = cfg.Parallel
	}
	o = o.WithDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	req.Seed, req.Scale = o.Seed, o.Scale
	c := &compiled{req: req, key: key(req, o, cfg.Fingerprint), target: req.ID}
	if req.ID != "" {
		if c.exp, err = experiment.ByID(req.ID); err != nil {
			return nil, err
		}
	} else {
		sc, err := scenario.Parse([]byte(req.Scenario))
		if err != nil {
			return nil, fmt.Errorf("invalid scenario: %v", err)
		}
		if o, err = o.ForScenario(sc); err != nil {
			return nil, err
		}
		c.exp, c.target = experiment.FromScenario(sc), "scenario:"+sc.Name
	}
	if ceil := cfg.MaxEventsCap; ceil > 0 && (o.MaxEvents == 0 || o.MaxEvents > ceil) {
		o.MaxEvents = ceil
	}
	if ceil := cfg.CellTimeoutCap; ceil > 0 && (o.CellTimeout == 0 || o.CellTimeout > ceil) {
		o.CellTimeout = ceil
	}
	c.opts = o
	return c, nil
}

// Event is one progress notification on a job's event stream.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	Msg   string `json:"msg,omitempty"`
	AtMS  int64  `json:"at_ms"`
}

// Outcome summarizes what one executed job produced beyond its document
// bytes: what the exit hint derives from, the failure records of its
// failed cells (for diag bundles), and — for a panic that escaped the
// executor's shields — the daemon-level FailureRecord.
type Outcome struct {
	AssertionFailures int
	Incomplete        bool
	Records           []experiment.FailureRecord
	Failure           *experiment.FailureRecord
}

// JobStatus is the client-facing view of one job: the GET /jobs/{id}
// body, and the POST /jobs response. Document holds the job's
// machine-readable report verbatim (the exact cached bytes on a hit — the
// byte-identity contract is on this field) once the job is terminal.
type JobStatus struct {
	JobID             string                    `json:"job_id"`
	State             string                    `json:"state"`
	Cached            bool                      `json:"cached,omitempty"`
	CacheKey          string                    `json:"cache_key"`
	Request           JobRequest                `json:"request"`
	EnqueuedAtMS      int64                     `json:"enqueued_at_ms,omitempty"`
	StartedAtMS       int64                     `json:"started_at_ms,omitempty"`
	FinishedAtMS      int64                     `json:"finished_at_ms,omitempty"`
	Failures          int                       `json:"failures,omitempty"`
	AssertionFailures int                       `json:"assertion_failures,omitempty"`
	Incomplete        bool                      `json:"incomplete,omitempty"`
	ExitHint          int                       `json:"exit_hint"`
	Error             string                    `json:"error,omitempty"`
	Failure           *experiment.FailureRecord `json:"failure,omitempty"`
	Document          json.RawMessage           `json:"document,omitempty"`
}
