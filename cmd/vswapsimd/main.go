// Command vswapsimd serves the simulator as a long-running daemon: an
// HTTP API over the same deterministic executor the CLIs use, with a
// bounded job queue, a crash-safe content-addressed result cache, and
// live health/metrics endpoints.
//
// Usage:
//
//	vswapsimd [flags]
//
// Endpoints:
//
//	POST /jobs              submit a job (registry id or inline scenario YAML)
//	GET  /jobs/{id}         job status + result document when terminal
//	GET  /jobs/{id}/events  server-sent-events progress stream (with heartbeats)
//	GET  /healthz           liveness + queue/worker load picture
//	GET  /metrics           Prometheus text format (serve_* counters + gauges)
//
// Admission control: when the bounded queue is full, POST /jobs answers
// 429 with a Retry-After hint; -maxbody bounds the request body.
// -maxevents and -celltimeout are server-side ceilings on the per-job
// watchdog budgets: a job may tighten them but never exceed them.
//
// Results are memoized in a content-addressed cache under -cachedir,
// keyed by every output-influencing knob plus the binary's own hash —
// entries are written atomically, checksummed on read, and a corrupted
// or version-mismatched entry is recomputed, never served. Delete the
// directory to flush; rebuilding the binary invalidates it implicitly.
//
// SIGINT/SIGTERM drain gracefully: stop admitting, let in-flight jobs
// finish within -draintimeout (then cancel them), and persist every
// accepted-but-unfinished job to -statefile so the next start re-runs
// exactly those jobs under their original ids.
//
// Exit codes: 0 clean drain (no job lost or interrupted), 1 runtime
// error, 2 usage, 3 forced drain (in-flight jobs were canceled and
// persisted for restart recovery).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vswapsim/internal/serve"
)

// Exit codes.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitForcedDrain = 3
)

// usageHeader precedes the flag listing in -h output; the usage test
// asserts it stays in sync with the actual command form.
const usageHeader = `Usage:
  vswapsimd [flags]

Flags:
`

// cliConfig holds the parsed command line.
type cliConfig struct {
	addr         string
	cacheDir     string
	stateFile    string
	workers      int
	queueDepth   int
	parallel     int
	maxBody      int64
	retryAfter   time.Duration
	maxEvents    uint64
	cellTimeout  time.Duration
	heartbeat    time.Duration
	writeTimeout time.Duration
	drainTimeout time.Duration
	diagDir      string
}

// newFlagSet registers every vswapsimd flag on a fresh FlagSet.
func newFlagSet(c *cliConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("vswapsimd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.cacheDir, "cachedir", ".vswapsimd/cache",
		"content-addressed result cache directory (delete it to flush; rebuilding the binary invalidates it)")
	fs.StringVar(&c.stateFile, "statefile", ".vswapsimd/state.json",
		"queue-state file for restart recovery of jobs accepted but unfinished at shutdown (empty = no persistence)")
	fs.IntVar(&c.workers, "workers", 2, "number of concurrent job workers")
	fs.IntVar(&c.queueDepth, "queue", 16,
		"bounded queue depth; a full queue rejects submissions with 429 + Retry-After")
	fs.IntVar(&c.parallel, "parallel", 0,
		"per-job executor parallelism when the job does not set its own (0 = GOMAXPROCS)")
	fs.Int64Var(&c.maxBody, "maxbody", 1<<20, "maximum request body size in bytes")
	fs.DurationVar(&c.retryAfter, "retryafter", time.Second, "Retry-After hint returned with 429 responses")
	fs.Uint64Var(&c.maxEvents, "maxevents", 0,
		"server-side ceiling on the per-job simulated-event budget (0 = no ceiling)")
	fs.DurationVar(&c.cellTimeout, "celltimeout", 0,
		"server-side ceiling on the per-job wall-clock budget, e.g. 30s (0 = no ceiling)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 5*time.Second, "event-stream keepalive interval")
	fs.DurationVar(&c.writeTimeout, "writetimeout", 10*time.Second,
		"per-write deadline on event streams; a client slower than this is dropped")
	fs.DurationVar(&c.drainTimeout, "draintimeout", 10*time.Second,
		"how long a SIGINT/SIGTERM drain waits for in-flight jobs before canceling them")
	fs.StringVar(&c.diagDir, "diagdir", "",
		"write one replayable crash-diagnostics bundle (JSON) per failed cell into this directory")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageHeader)
		fs.PrintDefaults()
	}
	return fs
}

// parseArgs parses args (without the program name). Parse errors are
// reported on stderr by the FlagSet itself.
func parseArgs(args []string) (cliConfig, error) {
	var c cliConfig
	fs := newFlagSet(&c)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.cacheDir == "" {
		return c, errors.New("-cachedir must not be empty")
	}
	if c.workers < 1 {
		return c, fmt.Errorf("invalid -workers %d: must be >= 1", c.workers)
	}
	if c.queueDepth < 1 {
		return c, fmt.Errorf("invalid -queue %d: must be >= 1", c.queueDepth)
	}
	if c.parallel < 0 {
		return c, fmt.Errorf("invalid -parallel %d: must be >= 0 (0 = GOMAXPROCS)", c.parallel)
	}
	if c.maxBody < 1 {
		return c, fmt.Errorf("invalid -maxbody %d: must be >= 1", c.maxBody)
	}
	if c.retryAfter < 0 || c.cellTimeout < 0 || c.heartbeat < 0 || c.writeTimeout < 0 || c.drainTimeout < 0 {
		return c, errors.New("durations must be >= 0")
	}
	return c, nil
}

// serverConfig compiles the command line into a serve.Config.
func (c cliConfig) serverConfig() serve.Config {
	return serve.Config{
		CacheDir:       c.cacheDir,
		StatePath:      c.stateFile,
		Workers:        c.workers,
		QueueDepth:     c.queueDepth,
		Parallel:       c.parallel,
		MaxBodyBytes:   c.maxBody,
		RetryAfter:     c.retryAfter,
		MaxEventsCap:   c.maxEvents,
		CellTimeoutCap: c.cellTimeout,
		Heartbeat:      c.heartbeat,
		WriteTimeout:   c.writeTimeout,
		DiagDir:        c.diagDir,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(stderr, "vswapsimd: %v (run 'vswapsimd -h' for usage)\n", err)
		}
		return exitUsage
	}
	return serveDaemon(c, stdout, stderr)
}

// serveDaemon runs the daemon until a signal drains it.
func serveDaemon(c cliConfig, stdout, stderr io.Writer) int {
	s, err := serve.New(c.serverConfig())
	if err != nil {
		fmt.Fprintf(stderr, "vswapsimd: %v\n", err)
		return exitError
	}
	s.Start()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsimd: %v\n", err)
		return exitError
	}
	httpServer := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	fmt.Fprintf(stdout, "vswapsimd: listening on %s (cache %s, %d workers, queue %d)\n",
		ln.Addr(), c.cacheDir, c.workers, c.queueDepth)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "vswapsimd: %v\n", err)
		return exitError
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "vswapsimd: draining (new submissions rejected)...")

	// Close the listener immediately (in the background: live event
	// streams keep Shutdown from returning until their jobs settle), then
	// give in-flight jobs the grace period before forcing them out.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*c.drainTimeout)
	defer shutCancel()
	go httpServer.Shutdown(shutCtx)

	drainCtx, drainCancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer drainCancel()
	clean, err := s.Drain(drainCtx)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsimd: drain: %v\n", err)
		return exitError
	}
	if !clean {
		fmt.Fprintln(stdout, "vswapsimd: forced drain: in-flight jobs canceled and persisted for restart recovery")
		return exitForcedDrain
	}
	fmt.Fprintln(stdout, "vswapsimd: clean drain, all accepted jobs settled")
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
