package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/serve"
)

// sampleResult is what one sample process reports to the parent, as the
// last line of its standard output.
type sampleResult struct {
	// ReadyUnixNS is when the first timed job was sent; the parent
	// subtracts its spawn time to get setup_s.
	ReadyUnixNS int64     `json:"ready_unix_ns"`
	WallS       float64   `json:"wall_s"`
	AllocMB     float64   `json:"alloc_mb"`
	HitMS       []float64 `json:"hit_ms"`
	MissMS      []float64 `json:"miss_ms"`
	// Jobs counts every job sent, warm-up included.
	Jobs int `json:"jobs"`
	// RefS is the host reference time measured after the jobs (ref.go).
	RefS     float64  `json:"ref_s"`
	Failures []string `json:"failures,omitempty"`
	// Fingerprint is the report fingerprint of a simulation workload's
	// document (empty for daemon-jobs, whose misses are checked by
	// re-simulation instead).
	Fingerprint string        `json:"fingerprint,omitempty"`
	Trace       *sampleTraced `json:"trace,omitempty"`
}

// sampleTraced holds the per-layer measurements of a profiled sample.
type sampleTraced struct {
	CPUMS       map[string]float64 `json:"cpu_ms"`
	GCCount     float64            `json:"gc_count"`
	GCPauseMS   float64            `json:"gc_pause_ms"`
	Counts      map[string]float64 `json:"counts"`
	QueueWaitMS []float64          `json:"queue_wait_ms"`
	RunMS       []float64          `json:"run_ms"`
	FinishMS    []float64          `json:"finish_ms"`
	HitRatio    float64            `json:"hit_ratio"`
	CacheWrites float64            `json:"cache_writes"`
	Probes      map[string]float64 `json:"probes,omitempty"`
}

func sampleMain(c config) int {
	res, err := runSample(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench sample:", err)
		return 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench sample:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// reqKey identifies a request for matching runner spans to misses.
// Timed misses are registry requests, so id, seed and scale suffice.
type reqKey struct {
	id    string
	seed  uint64
	scale float64
}

func keyOf(r serve.JobRequest) reqKey { return reqKey{r.ID, r.Seed, r.Scale} }

// span is one job's time inside serve.ExperimentRunner.
type span struct{ start, end time.Time }

// spanLog wraps the production runner, timing each job it executes. It
// is the benchmark's view of the worker: queue wait ends and finishing
// (cache write, terminal event) begins at the runner's boundaries.
type spanLog struct {
	mu    sync.Mutex
	spans map[reqKey]span
}

func (l *spanLog) runner(ctx context.Context, req serve.JobRequest, e experiment.Experiment, o experiment.Options) ([]byte, serve.Outcome, error) {
	start := time.Now()
	data, out, err := serve.ExperimentRunner(ctx, req, e, o)
	end := time.Now()
	l.mu.Lock()
	l.spans[keyOf(req)] = span{start, end}
	l.mu.Unlock()
	return data, out, err
}

// outcome is the client-side record of one job.
type outcome struct {
	job       job
	hit       bool
	submitted time.Time
	done      time.Time // hit: response read; miss: terminal event seen
	doc       []byte
	err       error
}

func runSample(c config) (*sampleResult, error) {
	w, _ := workloadByName(c.workload)
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.tmp)

	spans := &spanLog{spans: make(map[reqKey]span)}
	srv, err := serve.New(serve.Config{CacheDir: filepath.Join(c.tmp, "cache"), Runner: spans.runner})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(base)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, cl := range clients {
			cl.http.CloseIdleConnections()
		}
		hs.Shutdown(ctx)
		<-served
		srv.Drain(ctx)
	}()

	res := &sampleResult{}
	fail := func(format string, args ...interface{}) {
		res.Failures = append(res.Failures, fmt.Sprintf("%s seed %d sample %d: ", w.name, c.seed, c.sample)+fmt.Sprintf(format, args...))
	}

	// Set-up: simulate the hit set, and check its documents.
	var warm []job
	for i, r := range w.warm {
		warm = append(warm, job{req: withScenario(r), miss: true, ref: i})
	}
	warmOut := runJobs(clients, warm, nil)
	res.Jobs += len(warm)
	warmDocs := make([][]byte, len(warm))
	for i, o := range warmOut {
		if o.err != nil {
			fail("warm-up job %d: %v", i, o.err)
			continue
		}
		warmDocs[i] = o.doc
		want := "(none recorded)"
		if i < len(expectedHitSet) {
			want = expectedHitSet[i]
		}
		if got := fingerprintOf(o.doc); got != want {
			fail("warm-up job %d (%s): fingerprint %s, expected %s", i, label(o.job.req), got, want)
		}
	}

	plan := w.plan(c.seed, c.sample)
	var before promCounts
	if c.traced {
		before = scrape(clients[0], base)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	profile := filepath.Join(c.tmp, "cpu.pprof")
	var profFile *os.File
	if c.traced {
		if profFile, err = os.Create(profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(profFile); err != nil {
			profFile.Close()
			return nil, err
		}
	}
	ready := time.Now()
	outs := runJobs(clients, plan, warmDocs)
	wall := time.Since(ready)
	if c.traced {
		pprof.StopCPUProfile()
		if err := profFile.Close(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	res.RefS = hostRef()

	res.ReadyUnixNS = ready.UnixNano()
	res.WallS = wall.Seconds()
	res.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.Jobs += len(plan)
	var misses []outcome
	for i, o := range outs {
		if o.err != nil {
			fail("job %d (%s): %v", i, label(o.job.req), o.err)
			continue
		}
		lat := float64(o.done.Sub(o.submitted).Nanoseconds()) / 1e6
		if o.hit {
			res.HitMS = append(res.HitMS, lat)
		} else {
			res.MissMS = append(res.MissMS, lat)
			misses = append(misses, o)
		}
	}

	// Correctness of the misses: a simulation workload's document must
	// carry the recorded fingerprint when it simulates at the recorded
	// seed (every seed is also checked for agreement across samples by the
	// parent); daemon-jobs misses are re-simulated here and compared byte
	// for byte.
	if w.warm == nil && len(misses) > 0 {
		res.Fingerprint = fingerprintOf(misses[0].doc)
		want := expectedSim[w.name]
		req := misses[0].job.req
		if req.Seed == want.Seed && (req.Scale != want.Scale || res.Fingerprint != want.Fingerprint) {
			fail("fingerprint %s at scale %g, expected %s at scale %g", res.Fingerprint, req.Scale, want.Fingerprint, want.Scale)
		}
	}
	if w.warm != nil {
		for i := 0; i < len(misses) && i < daemonVerify; i++ {
			if err := resimulate(misses[i]); err != nil {
				fail("%v", err)
			}
		}
	}

	if c.traced {
		tr, err := traceSample(profile, &ms0, &ms1, misses, spans, scrape(clients[0], base).minus(before))
		if err != nil {
			return nil, err
		}
		if c.probes {
			if tr.Probes, err = probeSample(w, warm, warmDocs, misses, c.tmp); err != nil {
				return nil, err
			}
		}
		res.Trace = tr
	}
	return res, nil
}

// runJobs sends jobs through the clients in a closed loop: each client
// takes the next unsent job as soon as its previous one completes. refs
// holds the documents hits refer to by index.
func runJobs(clients []*client, jobs []job, refs [][]byte) []outcome {
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				o := cl.do(j)
				if o.err == nil && o.hit {
					var ref []byte
					if j.ref < len(refs) {
						ref = refs[j.ref]
					}
					if !bytes.Equal(o.doc, ref) {
						o.err = fmt.Errorf("hit document (%d bytes) is not byte-identical to the cold document (%d bytes)", len(o.doc), len(ref))
					}
				}
				outs[i] = o
			}
		}(cl)
	}
	wg.Wait()
	return outs
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do runs one job. A hit is timed as the POST round trip; a miss from
// POST to the terminal event on the job's event stream (not by polling,
// whose interval would quantise the time), after which its document is
// fetched untimed.
func (c *client) do(j job) outcome {
	o := outcome{job: j, submitted: time.Now()}
	body, err := json.Marshal(j.req)
	if err != nil {
		o.err = err
		return o
	}
	code, resp, err := c.send(http.MethodPost, "/jobs", body)
	if err != nil {
		o.err = err
		return o
	}
	switch code {
	case http.StatusOK:
		o.done = time.Now()
		o.hit = true
	case http.StatusAccepted:
	default:
		o.err = fmt.Errorf("POST /jobs: HTTP %d: %s", code, bytes.TrimSpace(resp))
		return o
	}
	var st serve.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		o.err = fmt.Errorf("decode status: %w", err)
		return o
	}
	if o.hit == j.miss {
		o.err = fmt.Errorf("job %s: cache hit = %v, expected %v", st.JobID, o.hit, !j.miss)
		return o
	}
	if !o.hit {
		if o.done, err = c.awaitTerminal(st.JobID); err != nil {
			o.err = err
			return o
		}
		code, resp, err = c.send(http.MethodGet, "/jobs/"+st.JobID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /jobs/%s: HTTP %d", st.JobID, code)
		}
		if err == nil {
			st = serve.JobStatus{}
			err = json.Unmarshal(resp, &st)
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	switch {
	case st.State != serve.StateDone || st.ExitHint != 0 || st.Failures != 0 || st.Error != "":
		o.err = fmt.Errorf("job %s ended %s (exit hint %d, %d failed cells) %s", st.JobID, st.State, st.ExitHint, st.Failures, st.Error)
	case len(st.Document) == 0:
		o.err = fmt.Errorf("job %s has no document", st.JobID)
	}
	o.doc = st.Document
	return o
}

// send performs one request and reads the whole response body.
func (c *client) send(method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// awaitTerminal follows GET /jobs/{id}/events and returns when the
// terminal event arrived. It drains the stream (the server closes it
// after that event) so the connection can be reused.
func (c *client) awaitTerminal(id string) (time.Time, error) {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("GET /jobs/%s/events: HTTP %d", id, resp.StatusCode)
	}
	var at time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if at.IsZero() && (line == "event: "+serve.StateDone || line == "event: "+serve.StateFailed) {
			at = time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, err
	}
	if at.IsZero() {
		return time.Time{}, fmt.Errorf("job %s: event stream ended without a terminal event", id)
	}
	return at, nil
}

// resimulate runs a daemon miss again in this process through
// experiment.RunDocument and compares the documents byte for byte.
func resimulate(o outcome) error {
	r := o.job.req
	e, err := experiment.ByID(r.ID)
	if err != nil {
		return err
	}
	doc, _ := experiment.RunDocument(e, experiment.Options{Seed: r.Seed, Scale: r.Scale, Quick: r.Quick, Parallel: 1})
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, o.doc) {
		return fmt.Errorf("miss %s seed %d: daemon document differs from an in-process run", r.ID, r.Seed)
	}
	return nil
}

// probeSample runs the layer probes on the sample's own inputs: the
// requests its hits repeat, their documents, and the counter names of its
// run reports.
func probeSample(w *workload, warm []job, warmDocs [][]byte, misses []outcome, tmp string) (map[string]float64, error) {
	var reqs []serve.JobRequest
	var docs [][]byte
	for i, j := range warm {
		reqs, docs = append(reqs, j.req), append(docs, warmDocs[i])
	}
	var missDocs [][]byte
	for _, o := range misses {
		missDocs = append(missDocs, o.doc)
	}
	if len(reqs) == 0 && len(misses) > 0 {
		reqs, docs = []serve.JobRequest{misses[0].job.req}, missDocs[:1]
	}
	totals, err := counterTotals(missDocs)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(totals))
	for k := range totals {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(docs) == 0 || len(names) == 0 {
		return nil, fmt.Errorf("probes: the sample produced no documents")
	}
	return runProbes(w, reqs, docs, names, tmp)
}

// fingerprintOf returns the first experiment's report fingerprint in a
// job document ("" if it does not parse).
func fingerprintOf(doc []byte) string {
	var d struct {
		Experiments []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"experiments"`
	}
	if json.Unmarshal(doc, &d) != nil || len(d.Experiments) == 0 {
		return ""
	}
	return d.Experiments[0].Fingerprint
}

// promCounts holds the /metrics counters the benchmark reads.
type promCounts struct{ hits, misses, writes float64 }

func (a promCounts) minus(b promCounts) promCounts {
	return promCounts{a.hits - b.hits, a.misses - b.misses, a.writes - b.writes}
}

// scrape reads the cache counters from GET /metrics (zero on error: the
// ratios then read 0, which the per-layer table shows).
func scrape(c *client, base string) promCounts {
	var p promCounts
	code, body, err := c.send(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return p
	}
	for _, line := range strings.Split(string(body), "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err != nil {
			continue
		}
		switch name {
		case "serve_cache_hits":
			p.hits = v
		case "serve_cache_misses":
			p.misses = v
		case "serve_cache_writes":
			p.writes = v
		}
	}
	return p
}
