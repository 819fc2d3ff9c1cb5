package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// Serving-layer metric names. They live in one metrics.Set per Server and
// render on /metrics in Prometheus text format (dots become underscores:
// serve.jobs.accepted → serve_jobs_accepted).
const (
	MetricJobsAccepted     = "serve.jobs.accepted"
	MetricJobsRejectedFull = "serve.jobs.rejected.queuefull"
	MetricJobsRejectedBad  = "serve.jobs.rejected.invalid"
	MetricJobsCompleted    = "serve.jobs.completed"
	MetricJobsFailed       = "serve.jobs.failed"
	MetricJobsIncomplete   = "serve.jobs.incomplete"
	MetricJobsRecovered    = "serve.jobs.recovered"
	MetricCacheHits        = "serve.cache.hits"
	MetricCacheMisses      = "serve.cache.misses"
	MetricCacheCorrupt     = "serve.cache.corrupt"
	MetricCacheWrites      = "serve.cache.writes"
	MetricJobWallNS        = "serve.job.wall.ns"
)

// Runner executes one compiled job and returns its document bytes plus
// the outcome summary. The default, ExperimentRunner, drives the real
// executor; tests inject stubs to exercise queueing, crashes and drains
// without simulating.
type Runner func(ctx context.Context, req JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, Outcome, error)

// ExperimentRunner is the production Runner: it wires the job's context
// into the executor's cancellation plumbing (a fatal wall breach cancels
// this job only, never the daemon), runs the experiment, and marshals the
// job-granular document (compact bytes — exactly what gets cached).
func ExperimentRunner(ctx context.Context, req JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, Outcome, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	o.Ctx = runCtx
	o.CancelRun = cancel
	doc, res := experiment.RunDocument(e, o)
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, Outcome{}, fmt.Errorf("marshal document: %w", err)
	}
	return data, Outcome{
		AssertionFailures: res.Report.AssertionFailures,
		Incomplete:        doc.Incomplete,
		Records:           res.Report.Failures,
	}, nil
}

// The defaults Config's zero values stand for, which vswapsimd's flags
// also show.
const (
	DefaultWorkers      = 2
	DefaultQueueDepth   = 16
	DefaultMaxBodyBytes = 1 << 20
	DefaultRetryAfter   = time.Second
	DefaultHeartbeat    = 5 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// maxFinishedJobs bounds how many finished jobs the server remembers:
// past it, the oldest finished job is forgotten, and its id answers 404
// like an unknown one. Queued, running and incomplete jobs are never
// forgotten.
const maxFinishedJobs = 1024

// Config parameterizes a Server. Zero values take the documented
// defaults.
type Config struct {
	// CacheDir roots the content-addressed result cache (required).
	CacheDir string
	// StatePath, when non-empty, is where Drain persists unfinished jobs
	// and where New looks for jobs to recover.
	StatePath string
	// Workers bounds how many jobs execute concurrently (default 2).
	Workers int
	// QueueDepth bounds how many accepted jobs may wait (default 16).
	// When the queue is full, POST /jobs answers 429 with Retry-After.
	QueueDepth int
	// Parallel is the per-job executor width when the request leaves it 0
	// (default GOMAXPROCS).
	Parallel int
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxEventsCap / CellTimeoutCap are server-side ceilings on the
	// per-job watchdog budgets: requests may tighten but never exceed
	// them (0 = no ceiling).
	MaxEventsCap   uint64
	CellTimeoutCap time.Duration
	// Heartbeat is the event-stream keepalive interval (default 5s);
	// WriteTimeout is the per-write deadline on event streams (default
	// 10s) — a client that cannot drain a write within it is dropped.
	Heartbeat    time.Duration
	WriteTimeout time.Duration
	// DiagDir, when non-empty, receives one replayable crash-diagnostics
	// bundle per failed cell or crashed job.
	DiagDir string
	// Fingerprint names the code in cache keys (default CodeFingerprint(),
	// the executable's Go build ID): servers share cache entries only when
	// their fingerprints are equal. Tests use it to simulate version
	// mismatches.
	Fingerprint string
	// Runner overrides job execution (default ExperimentRunner).
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.Fingerprint == "" {
		c.Fingerprint = CodeFingerprint()
	}
	if c.Runner == nil {
		c.Runner = ExperimentRunner
	}
	return c
}

// job is the server-side record of one submitted job. All mutable fields
// are guarded by Server.mu.
type job struct {
	*compiled
	id  string
	seq uint64

	state      string
	cached     bool
	doc        []byte
	outcome    Outcome
	errMsg     string
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	events []Event
	subs   map[chan Event]bool
	cancel context.CancelFunc
}

// Server is the simulation-as-a-service daemon core: admission, the
// bounded queue, the worker pool, the result cache, job bookkeeping, and
// the HTTP API. Create with New, start workers with Start, shut down with
// Drain.
type Server struct {
	cfg   Config
	cache *Cache

	met *metrics.Set
	// counter handles, resolved once; all updates happen under mu.
	cAccepted, cRejFull, cRejBad         *metrics.Counter
	cCompleted, cFailed, cIncomplete     *metrics.Counter
	cRecovered                           *metrics.Counter
	cCacheHit, cCacheMiss, cCacheCorrupt *metrics.Counter
	cCacheWrite                          *metrics.Counter
	hWall                                *metrics.Histogram

	mu   sync.Mutex
	cond *sync.Cond // broadcast when running drops
	jobs map[string]*job
	// finished lists the ids of the finished jobs in jobs, oldest first;
	// forgetOldLocked bounds it at maxFinishedJobs. Incomplete jobs stay
	// out of it, because Drain persists them.
	finished []string
	nextSeq  uint64
	running  int
	draining bool
	deferred []*job // received by a worker during drain; persisted, not run

	queue      chan *job
	queueClose sync.Once

	workerWG    sync.WaitGroup
	runCtx      context.Context
	forceCancel context.CancelFunc
}

// persistedState is the drain-time queue snapshot (StatePath contents).
type persistedState struct {
	Version int            `json:"version"`
	NextSeq uint64         `json:"next_seq"`
	Pending []persistedJob `json:"pending"`
}

type persistedJob struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
}

// New builds a Server, opening the cache and recovering any queue state a
// previous drain persisted: recovered jobs keep their original ids and
// re-enter the queue in submission order, so a restart completes exactly
// the work the shutdown accepted (determinism makes the re-runs produce
// the same bytes the original runs would have).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		cache: cache,
		met:   metrics.NewSet(),
		jobs:  make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	s.cAccepted = s.met.Counter(MetricJobsAccepted)
	s.cRejFull = s.met.Counter(MetricJobsRejectedFull)
	s.cRejBad = s.met.Counter(MetricJobsRejectedBad)
	s.cCompleted = s.met.Counter(MetricJobsCompleted)
	s.cFailed = s.met.Counter(MetricJobsFailed)
	s.cIncomplete = s.met.Counter(MetricJobsIncomplete)
	s.cRecovered = s.met.Counter(MetricJobsRecovered)
	s.cCacheHit = s.met.Counter(MetricCacheHits)
	s.cCacheMiss = s.met.Counter(MetricCacheMisses)
	s.cCacheCorrupt = s.met.Counter(MetricCacheCorrupt)
	s.cCacheWrite = s.met.Counter(MetricCacheWrites)
	s.hWall = s.met.Histogram(MetricJobWallNS)
	s.runCtx, s.forceCancel = context.WithCancel(context.Background())

	recovered, nextSeq, err := s.loadState()
	if err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if len(recovered) > depth {
		depth = len(recovered)
	}
	s.queue = make(chan *job, depth)
	s.nextSeq = nextSeq
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.appendEvent(j, StateQueued, "recovered from persisted queue state")
		s.queue <- j
		s.cRecovered.Inc()
	}
	return s, nil
}

// loadState reads and consumes the persisted queue snapshot, compiling
// each pending request (a job that no longer validates — say, after a
// registry change — is dropped rather than wedging the queue).
func (s *Server) loadState() ([]*job, uint64, error) {
	if s.cfg.StatePath == "" {
		return nil, 1, nil
	}
	data, err := os.ReadFile(s.cfg.StatePath)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 1, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: read state: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, 0, fmt.Errorf("serve: corrupt state file %s: %w", s.cfg.StatePath, err)
	}
	if err := os.Remove(s.cfg.StatePath); err != nil {
		return nil, 0, fmt.Errorf("serve: consume state: %w", err)
	}
	var out []*job
	for _, p := range st.Pending {
		c, err := compile(p.Request, s.cfg)
		if err != nil {
			continue
		}
		out = append(out, &job{
			compiled:   c,
			id:         p.ID,
			state:      StateQueued,
			enqueuedAt: time.Now(),
			subs:       make(map[chan Event]bool),
		})
	}
	next := st.NextSeq
	if next == 0 {
		next = 1
	}
	for i, j := range out {
		j.seq = next + uint64(i)
	}
	if len(out) > 0 {
		next = out[len(out)-1].seq + 1
	}
	return out, next, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
}

// Metrics exposes the server's metric set (for tests).
func (s *Server) Metrics() func(name string) int64 {
	return func(name string) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.met.Get(name)
	}
}

// worker pulls jobs off the queue until it closes. During a drain,
// received jobs are deferred for persistence instead of run — "stop
// admitting, finish in-flight, persist the rest".
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.mu.Lock()
		if s.draining {
			s.deferred = append(s.deferred, j)
			s.mu.Unlock()
			continue
		}
		s.running++
		j.state = StateRunning
		j.startedAt = time.Now()
		jctx, cancel := context.WithCancel(s.runCtx)
		j.cancel = cancel
		s.appendEvent(j, StateRunning, "")
		s.mu.Unlock()

		payload, out, err := s.safeRun(jctx, j)
		cancel()
		s.finishJob(j, payload, out, err)
	}
}

// safeRun executes one job under the daemon's panic shield: a panic that
// escapes the executor's own cell/experiment shields (document assembly,
// a buggy injected Runner) becomes a structured FailureRecord and a
// failed job — never a dead daemon.
func (s *Server) safeRun(ctx context.Context, j *job) (payload []byte, out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec := experiment.NewPanicFailure("job/"+j.id+"/"+j.target, j.opts.Seed, r)
			out = Outcome{Failure: &rec}
			payload = nil
			err = fmt.Errorf("job panicked: %s", rec.Message)
		}
	}()
	return s.cfg.Runner(ctx, j.req, j.exp, j.opts)
}

// finishJob records a completed execution: caches clean results, writes
// diag bundles for failed cells, updates counters, and publishes the
// terminal event.
func (s *Server) finishJob(j *job, payload []byte, out Outcome, err error) {
	// Only clean, complete runs enter the cache: no daemon-level error, no
	// failed cells, no failed assertions, not canceled mid-run. Everything
	// else recomputes on the next request — failure modes (wall kills,
	// cancellation) are not all deterministic, and a cache must never
	// launder one run's bad luck into everyone's answer.
	cacheable := err == nil && payload != nil &&
		!out.Incomplete && len(out.Records) == 0 && out.AssertionFailures == 0
	cached := false
	if cacheable {
		if werr := s.cache.Put(j.key, payload); werr == nil {
			cached = true
		}
	}
	s.writeDiagBundles(j, out)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.finishedAt = time.Now()
	j.doc = payload
	j.outcome = out
	if wall := j.finishedAt.Sub(j.startedAt); wall > 0 {
		s.hWall.Observe(sim.Duration(wall.Nanoseconds()))
	}
	if cached {
		s.cCacheWrite.Inc()
	}
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.cFailed.Inc()
		s.appendEvent(j, StateFailed, j.errMsg)
	} else {
		j.state = StateDone
		if out.Incomplete {
			s.cIncomplete.Inc()
		} else {
			s.cCompleted.Inc()
		}
		s.appendEvent(j, StateDone, fmt.Sprintf("failures=%d assertion_failures=%d incomplete=%v",
			len(out.Records), out.AssertionFailures, out.Incomplete))
	}
	s.closeSubsLocked(j)
	if !out.Incomplete {
		s.forgetOldLocked(j)
	}
	s.cond.Broadcast()
}

// forgetOldLocked records that j finished and forgets the oldest
// finished job once more than maxFinishedJobs are kept. Callers hold mu.
func (s *Server) forgetOldLocked(j *job) {
	s.finished = append(s.finished, j.id)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// writeDiagBundles persists one replayable crash-diagnostics bundle per
// failure record when DiagDir is configured, mirroring the CLIs' -diagdir.
func (s *Server) writeDiagBundles(j *job, out Outcome) {
	if s.cfg.DiagDir == "" {
		return
	}
	recs := out.Records
	if out.Failure != nil {
		recs = append(append([]experiment.FailureRecord(nil), recs...), *out.Failure)
	}
	if len(recs) == 0 {
		return
	}
	replay := experiment.ReplayCommand(j.target, "", j.opts)
	if j.req.Scenario != "" {
		replay = "POST the same scenario job to vswapsimd, or save the YAML and run: " +
			experiment.ReplayCommand("", "<scenario.yaml>", j.opts)
	}
	if _, err := experiment.WriteDiagBundles(s.cfg.DiagDir, "vswapsimd", j.target, replay, j.opts, recs); err != nil {
		// Diagnostics are best-effort; the failure is already in the job.
		fmt.Fprintf(os.Stderr, "vswapsimd: writing diag bundles: %v\n", err)
	}
}

// appendEvent records and publishes one event. Callers hold mu.
// Publishing is non-blocking: a subscriber whose buffer is full is closed
// and dropped — a slow or stuck client cannot stall the daemon.
func (s *Server) appendEvent(j *job, state, msg string) {
	ev := Event{Seq: len(j.events) + 1, State: state, Msg: msg, AtMS: time.Now().UnixMilli()}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(j.subs, ch)
		}
	}
}

// closeSubsLocked ends every live event stream after the terminal event.
func (s *Server) closeSubsLocked(j *job) {
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// Drain shuts the server down gracefully: stop admitting, let in-flight
// jobs finish (canceling them through the executor's context plumbing if
// ctx expires first), stop the workers, and persist every accepted-but-
// unfinished job — queued, deferred, or canceled mid-run — to StatePath
// for restart recovery. clean reports whether every in-flight job got to
// finish on its own; a forced drain (canceled jobs, which re-run after
// restart) is not clean, and the daemon maps that to exit code 3.
func (s *Server) Drain(ctx context.Context) (clean bool, err error) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.running > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	clean = true
	select {
	case <-done:
	case <-ctx.Done():
		clean = false
		s.forceCancel() // in-flight watchdogs abort at their next poll
		<-done
	}

	// Stop the workers; anything still buffered in the channel is routed
	// to deferred by the draining check, then persisted below. (Safe from
	// racing submits: enqueue re-checks draining under mu, and draining was
	// published under mu before this point.)
	s.queueClose.Do(func() { close(s.queue) })
	s.workerWG.Wait()

	s.mu.Lock()
	pending := append([]*job(nil), s.deferred...)
	seen := make(map[string]bool, len(pending))
	for _, j := range pending {
		seen[j.id] = true
	}
	for _, j := range s.jobs {
		if seen[j.id] {
			continue
		}
		// Unstarted jobs, plus force-canceled ones whose partial document
		// is marked incomplete: both re-run after restart.
		if j.state == StateQueued || (terminal(j.state) && j.outcome.Incomplete) {
			pending = append(pending, j)
			seen[j.id] = true
		}
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].seq < pending[b].seq })
	st := persistedState{Version: 1, NextSeq: s.nextSeq}
	for _, j := range pending {
		st.Pending = append(st.Pending, persistedJob{ID: j.id, Request: j.req})
	}
	s.mu.Unlock()

	if err := s.persistState(st); err != nil {
		return clean, err
	}
	return clean, nil
}

// persistState writes the queue snapshot atomically (temp + rename), the
// same crash-safety discipline the result cache uses.
func (s *Server) persistState(st persistedState) error {
	if s.cfg.StatePath == "" || len(st.Pending) == 0 {
		return nil
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.cfg.StatePath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-state-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.cfg.StatePath)
}

// statusLocked renders a job's client-facing status. Callers hold mu.
func (s *Server) statusLocked(j *job) *JobStatus {
	st := &JobStatus{
		JobID:    j.id,
		State:    j.state,
		Cached:   j.cached,
		CacheKey: j.key,
		Request:  j.req,
	}
	if !j.enqueuedAt.IsZero() {
		st.EnqueuedAtMS = j.enqueuedAt.UnixMilli()
	}
	if !j.startedAt.IsZero() {
		st.StartedAtMS = j.startedAt.UnixMilli()
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAtMS = j.finishedAt.UnixMilli()
	}
	if terminal(j.state) {
		st.Failures = len(j.outcome.Records)
		st.AssertionFailures = j.outcome.AssertionFailures
		st.Incomplete = j.outcome.Incomplete
		st.Error = j.errMsg
		st.Failure = j.outcome.Failure
		st.Document = json.RawMessage(j.doc)
		st.ExitHint = exitHint(j)
	}
	return st
}

// exitHint maps a terminal job onto the CLI exit-code vocabulary:
// 0 ok, 1 failures (daemon error, failed cells, failed assertions),
// 3 incomplete (canceled mid-run).
func exitHint(j *job) int {
	switch {
	case j.outcome.Incomplete:
		return 3
	case j.state == StateFailed || len(j.outcome.Records) > 0 || j.outcome.AssertionFailures > 0:
		return 1
	}
	return 0
}

// retryAfterSeconds renders the Retry-After header value (whole seconds,
// minimum 1 — the header does not speak fractions).
func (s *Server) retryAfterSeconds() string {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// handleSubmit is POST /jobs: admission control (drain gate, body limit,
// compilation), then cache lookup, then the bounded queue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		s.mu.Lock()
		s.cRejBad.Inc()
		s.mu.Unlock()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed request: " + err.Error()})
		return
	}
	c, err := compile(req, s.cfg)
	if err != nil {
		s.mu.Lock()
		s.cRejBad.Inc()
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	payload, corrupt := s.cache.Get(c.key)

	s.mu.Lock()
	if payload != nil {
		// Cache hit: the job is born terminal, serving the stored bytes
		// verbatim — proven byte-identical to a cold run by test.
		j := s.newJobLocked(c)
		j.cached = true
		j.state = StateDone
		j.doc = payload
		j.finishedAt = j.enqueuedAt
		s.cAccepted.Inc()
		s.cCacheHit.Inc()
		s.cCompleted.Inc()
		s.appendEvent(j, StateDone, "served from cache")
		s.closeSubsLocked(j)
		s.forgetOldLocked(j)
		st := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if corrupt {
		s.cCacheCorrupt.Inc()
	}
	s.cCacheMiss.Inc()
	// Re-check draining under the same lock the enqueue happens under:
	// Drain publishes the flag under mu strictly before closing the queue,
	// so a send that observes !draining here cannot hit a closed channel.
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}
	j := s.newJobLocked(c)
	select {
	case s.queue <- j:
		s.cAccepted.Inc()
		s.appendEvent(j, StateQueued, "")
		st := s.statusLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, st)
	default:
		delete(s.jobs, j.id)
		s.nextSeq-- // the job never existed
		s.cRejFull.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: fmt.Sprintf("job queue full (%d queued)", cap(s.queue))})
	}
}

// newJobLocked allocates a job record. Callers hold mu.
func (s *Server) newJobLocked(c *compiled) *job {
	j := &job{
		compiled:   c,
		id:         fmt.Sprintf("j-%d", s.nextSeq),
		seq:        s.nextSeq,
		state:      StateQueued,
		enqueuedAt: time.Now(),
		subs:       make(map[chan Event]bool),
	}
	s.nextSeq++
	s.jobs[j.id] = j
	return j
}

// handleGetJob is GET /jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents is GET /jobs/{id}/events: a server-sent-events stream of
// the job's progress. The full event history replays first (late or
// reconnecting subscribers lose nothing), then live events stream with
// heartbeat comments every Heartbeat. Every write carries a deadline: a
// client that cannot drain within WriteTimeout is disconnected rather
// than allowed to wedge a handler goroutine.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	history := append([]Event(nil), j.events...)
	var ch chan Event
	if !terminal(j.state) {
		ch = make(chan Event, 16)
		j.subs[ch] = true
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	writeEvent := func(ev Event) bool {
		rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		data, _ := json.Marshal(ev)
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, data); err != nil {
			return false
		}
		rc.Flush()
		return true
	}
	unsubscribe := func() {
		if ch == nil {
			return
		}
		s.mu.Lock()
		if j.subs != nil {
			delete(j.subs, ch)
		}
		s.mu.Unlock()
	}
	for _, ev := range history {
		if !writeEvent(ev) {
			unsubscribe()
			return
		}
	}
	if ch == nil {
		return // job already terminal: history is the whole story
	}
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal event delivered (or we were dropped as slow)
			}
			if !writeEvent(ev) {
				unsubscribe()
				return
			}
		case <-hb.C:
			rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				unsubscribe()
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			unsubscribe()
			return
		}
	}
}

// handleHealthz is GET /healthz: liveness plus the load picture.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]interface{}{
		"status":      "ok",
		"draining":    s.draining,
		"queue_depth": len(s.queue),
		"queue_cap":   cap(s.queue),
		"running":     s.running,
		"jobs":        len(s.jobs),
		"workers":     s.cfg.Workers,
	}
	if s.draining {
		body["status"] = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics is GET /metrics: the serving counters and histograms in
// Prometheus text format, plus live gauges for queue depth and running
// jobs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.WritePrometheus(w)
	metrics.WritePromGauge(w, "serve.queue.depth", float64(len(s.queue)))
	metrics.WritePromGauge(w, "serve.queue.cap", float64(cap(s.queue)))
	metrics.WritePromGauge(w, "serve.jobs.running", float64(s.running))
	drain := 0.0
	if s.draining {
		drain = 1.0
	}
	metrics.WritePromGauge(w, "serve.draining", drain)
}
