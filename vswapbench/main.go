// Command vswapbench is the repository's benchmark. It runs one workload
// for a fixed number of seconds and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its output,
// in one JSON object. README.md describes the workloads and metrics;
// run.sh builds it and runs it from the repository root:
//
//	bash vswapbench/run.sh --workload pbzip2-sweep --seed 42 --seconds 30 --trace 0
//
// Each sample runs in a child process of this binary, so that set-up
// time, peak resident memory and the heap are measured per sample. The
// parent only spawns samples, aggregates their reports, and prints.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// config is the parsed command line. The child-only flags are set by the
// parent when it spawns a sample.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int

	role   string // "bench" (default) or "sample"
	sample int
	traced bool
	probes bool
	tmp    string
}

func parseArgs(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("vswapbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name: pbzip2-sweep, cluster-overcommit, daemon-jobs")
	fs.Uint64Var(&c.seed, "seed", 42, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&c.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	fs.StringVar(&c.role, "role", "bench", "internal: bench or sample")
	fs.IntVar(&c.sample, "sample", 0, "internal: sample index")
	fs.BoolVar(&c.traced, "traced", false, "internal: profile this sample")
	fs.BoolVar(&c.probes, "probes", false, "internal: run the layer probes after this sample")
	fs.StringVar(&c.tmp, "tmp", "", "internal: scratch directory for this sample")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := workloadByName(c.workload); err != nil {
		return c, err
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("invalid -seconds %d: must be >= 1", c.seconds)
	}
	if c.trace != 0 && c.trace != 1 {
		return c, fmt.Errorf("invalid -trace %d: must be 0 or 1", c.trace)
	}
	if c.role != "bench" && c.role != "sample" {
		return c, fmt.Errorf("invalid -role %q", c.role)
	}
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "vswapbench:", err)
		}
		os.Exit(2)
	}
	if err := loadInputs(); err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench:", err)
		os.Exit(1)
	}
	if c.role == "sample" {
		os.Exit(sampleMain(c))
	}
	os.Exit(benchMain(c))
}

// sampleRun is one finished child: its report plus what the parent
// measured from outside.
type sampleRun struct {
	res    *sampleResult
	setupS float64
	rssMB  float64
	total  time.Duration // spawn to exit
}

// benchMain runs samples until the time is used and prints the result.
// With -trace 1 it first runs untraced samples (the baseline for
// trace_overhead), then profiled ones; the first profiled sample also runs
// the layer probes.
func benchMain(c config) int {
	w, _ := workloadByName(c.workload)
	budget := time.Duration(c.seconds) * time.Second
	tmp := filepath.Join(".bench_build", "tmp", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	start := time.Now()
	var plain, traced []*sampleRun
	var longest time.Duration
	// phase runs samples until the next one would end after until, but
	// always at least min of them.
	phase := func(until time.Duration, min int, profile bool) error {
		for n := 0; n < min || time.Since(start)+longest <= until; n++ {
			probes := profile && n == 0
			s, err := spawnSample(c, w, len(plain)+len(traced), profile, probes, tmp)
			if err != nil {
				return err
			}
			if s.total > longest {
				longest = s.total
			}
			if profile {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
		return nil
	}
	var err error
	if c.trace == 0 {
		err = phase(budget, 3, false)
	} else {
		err = phase(budget*45/100, 2, false)
		if err == nil {
			err = phase(budget, 2, true)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench:", err)
		return 1
	}

	all := append(append([]*sampleRun(nil), plain...), traced...)
	attempted, failed, msgs := tally(all, c, w)
	var out []metric
	if c.trace == 0 {
		out = endToEnd(plain)
	} else {
		out = perLayer(plain, traced)
	}
	for _, m := range msgs {
		fmt.Println("FAIL", m)
	}
	fmt.Printf("workload %s seed %d: %d untraced + %d traced samples in %.1f s\n",
		w.name, c.seed, len(plain), len(traced), time.Since(start).Seconds())
	fmt.Print("sample wall_s:")
	for _, s := range all {
		fmt.Printf(" %.3f", s.res.WallS)
	}
	fmt.Printf("\nunscaled wall_s %.4f setup_s %.4f, reference %.3f ms: times scaled by %.4f\n",
		median(plain, func(s *sampleRun) float64 { return s.res.WallS }),
		median(plain, func(s *sampleRun) float64 { return s.setupS }),
		1e3*median(plain, func(s *sampleRun) float64 { return s.res.RefS }), speedScale(plain))
	if fp := all[0].res.Fingerprint; fp != "" {
		fmt.Printf("fingerprint %s\n", fp)
	}
	for _, m := range out {
		fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := resultLine(failed == 0, attempted, failed, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vswapbench:", err)
		return 1
	}
	fmt.Println(line)
	if failed > 0 {
		return 1
	}
	return 0
}

// spawnSample runs one sample process and waits for it.
func spawnSample(c config, w *workload, idx int, traced, probes bool, tmp string) (*sampleRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(tmp, fmt.Sprintf("s%d", idx))
	args := []string{
		"-role", "sample", "-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10),
		"-sample", strconv.Itoa(idx), "-tmp", dir,
		"-traced=" + strconv.FormatBool(traced), "-probes=" + strconv.FormatBool(probes),
	}
	// A sample that takes three minutes is hung; kill it rather than the run.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = os.Environ()
	if w.maxprocs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", w.maxprocs))
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The sample dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sample %d: %w", idx, err)
	}
	total := time.Since(spawned)
	res := &sampleResult{}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), res); err != nil {
		return nil, fmt.Errorf("sample %d: bad report: %w", idx, err)
	}
	s := &sampleRun{res: res, total: total,
		setupS: float64(res.ReadyUnixNS-spawned.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// tally counts attempted and failed jobs over all samples. Every sample
// of a simulation workload must produce the same fingerprint: at the
// recorded seed the child checks it against expect.json, and on any other
// seed this check is what catches nondeterminism.
func tally(runs []*sampleRun, c config, w *workload) (attempted, failed int, msgs []string) {
	for _, s := range runs {
		attempted += s.res.Jobs
		failed += len(s.res.Failures)
		msgs = append(msgs, s.res.Failures...)
		if fp := runs[0].res.Fingerprint; s.res.Fingerprint != fp {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s seed %d: sample fingerprint %s differs from the first sample's %s",
				w.name, c.seed, s.res.Fingerprint, fp))
		}
	}
	return attempted, failed, msgs
}

// metric is one named value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd aggregates untraced samples: medians over the samples, with
// the times scaled to the reference host speed (ref.go). Every metric
// here exists, and is nonzero, on every workload. Miss and hit latencies
// are reported with the per-layer metrics of serve: hits exist only on
// daemon-jobs, and on a simulation workload the misses are its samples.
func endToEnd(runs []*sampleRun) []metric {
	k := speedScale(runs)
	return []metric{
		{"wall_s", k * median(runs, func(s *sampleRun) float64 { return s.res.WallS }), "s"},
		{"alloc_mb", median(runs, func(s *sampleRun) float64 { return s.res.AllocMB }), "MB"},
		{"peak_rss_mb", median(runs, func(s *sampleRun) float64 { return s.rssMB }), "MB"},
		{"setup_s", k * median(runs, func(s *sampleRun) float64 { return s.setupS }), "s"},
	}
}

// speedScale is refNominal ÷ the runs' median reference time.
func speedScale(runs []*sampleRun) float64 {
	return refNominal.Seconds() / median(runs, func(s *sampleRun) float64 { return s.res.RefS })
}

// median returns the median of f over the runs.
func median(runs []*sampleRun, f func(*sampleRun) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resultLine renders the final JSON object.
func resultLine(correct bool, attempted, failed int, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		vals[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	return string(data), err
}

// loadInputs reads the repository files the workloads send as inline
// scenarios, relative to the repository root the benchmark runs in.
func loadInputs() error {
	data, err := os.ReadFile(filepath.Join("scenarios", "fig3.yaml"))
	if err != nil {
		return fmt.Errorf("read scenario: %w", err)
	}
	fig3Scenario = string(data)
	return nil
}
