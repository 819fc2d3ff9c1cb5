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

// cliConfig holds the parsed command line: the server's configuration
// and the two knobs of the process around it.
type cliConfig struct {
	addr         string
	drainTimeout time.Duration
	cfg          serve.Config
}

// newFlagSet registers every vswapsimd flag on a fresh FlagSet.
func newFlagSet(c *cliConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("vswapsimd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.cfg.CacheDir, "cachedir", ".vswapsimd/cache",
		"content-addressed result cache directory (delete it to flush; rebuilding the binary invalidates it)")
	fs.StringVar(&c.cfg.StatePath, "statefile", ".vswapsimd/state.json",
		"queue-state file for restart recovery of jobs accepted but unfinished at shutdown (empty = no persistence)")
	fs.IntVar(&c.cfg.Workers, "workers", serve.DefaultWorkers, "number of concurrent job workers")
	fs.IntVar(&c.cfg.QueueDepth, "queue", serve.DefaultQueueDepth,
		"bounded queue depth; a full queue rejects submissions with 429 + Retry-After")
	fs.IntVar(&c.cfg.Parallel, "parallel", 0,
		"per-job executor parallelism when the job does not set its own (0 = GOMAXPROCS)")
	fs.Int64Var(&c.cfg.MaxBodyBytes, "maxbody", serve.DefaultMaxBodyBytes, "maximum request body size in bytes")
	fs.DurationVar(&c.cfg.RetryAfter, "retryafter", serve.DefaultRetryAfter, "Retry-After hint returned with 429 responses")
	fs.Uint64Var(&c.cfg.MaxEventsCap, "maxevents", 0,
		"server-side ceiling on the per-job simulated-event budget (0 = no ceiling)")
	fs.DurationVar(&c.cfg.CellTimeoutCap, "celltimeout", 0,
		"server-side ceiling on the per-job wall-clock budget, e.g. 30s (0 = no ceiling)")
	fs.DurationVar(&c.cfg.Heartbeat, "heartbeat", serve.DefaultHeartbeat, "event-stream keepalive interval")
	fs.DurationVar(&c.cfg.WriteTimeout, "writetimeout", serve.DefaultWriteTimeout,
		"per-write deadline on event streams; a client slower than this is dropped")
	fs.DurationVar(&c.drainTimeout, "draintimeout", 10*time.Second,
		"how long a SIGINT/SIGTERM drain waits for in-flight jobs before canceling them")
	fs.StringVar(&c.cfg.DiagDir, "diagdir", "",
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
	sc := c.cfg
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case sc.CacheDir == "":
		return c, errors.New("-cachedir must not be empty")
	case sc.Workers < 1:
		return c, fmt.Errorf("invalid -workers %d: must be >= 1", sc.Workers)
	case sc.QueueDepth < 1:
		return c, fmt.Errorf("invalid -queue %d: must be >= 1", sc.QueueDepth)
	case sc.Parallel < 0:
		return c, fmt.Errorf("invalid -parallel %d: must be >= 0 (0 = GOMAXPROCS)", sc.Parallel)
	case sc.MaxBodyBytes < 1:
		return c, fmt.Errorf("invalid -maxbody %d: must be >= 1", sc.MaxBodyBytes)
	case sc.RetryAfter < 0 || sc.CellTimeoutCap < 0 || sc.Heartbeat < 0 || sc.WriteTimeout < 0 || c.drainTimeout < 0:
		return c, errors.New("durations must be >= 0")
	}
	return c, nil
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
	s, err := serve.New(c.cfg)
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
		ln.Addr(), c.cfg.CacheDir, c.cfg.Workers, c.cfg.QueueDepth)

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
