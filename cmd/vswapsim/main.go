// Command vswapsim runs the paper's experiments — hand-coded registry
// entries or declarative YAML scenarios — and prints their tables.
//
// Usage:
//
//	vswapsim -list
//	vswapsim -run <id> [flags]
//	vswapsim run <scenario.yaml> [flags]
//	vswapsim report [-only <ids>] [-o <file>] [-csv <dir>] [flags]
//	vswapsim validate <scenario.yaml>...
//
// The run knobs (-seed, -scale, -quick, -parallel, -tracering, -faults,
// -swapback, -swappolicy, -auditevery, -maxevents, -celltimeout) are
// defined once, by experiment.Options.BindFlags, and every form takes
// them, along with -json, -diagdir, -cpuprofile, -memprofile and
// -server. Run `vswapsim -h` (or `vswapsim report -h`) for the full
// descriptions.
//
// `vswapsim report` regenerates every table and figure of the paper's
// evaluation in one run (or the -only subset), printing each report as
// it completes in registry order; -o also writes the text to a file and
// -csv writes each table as CSV. It is the source of EXPERIMENTS.md's
// measured numbers.
//
// `vswapsim run scenarios/fig3.yaml` executes a declarative scenario
// (see internal/scenario and EXPERIMENTS.md for the schema) through the
// same executor as the hand-coded experiments: a scenario mirroring a
// registry figure produces a byte-identical report. `vswapsim validate`
// parses and validates scenario files without running them, printing
// file:line:col positioned errors.
//
// With -json the machine-readable report is printed instead of the text
// tables: tables and notes plus one run record per simulated machine
// (counters, latency histograms, per-phase time accounting, and — with
// -tracering — the trace tail). The JSON bytes are bit-identical between
// serial (-parallel 1) and parallel runs.
//
// With -server URL the experiments are submitted to a vswapsimd daemon
// instead of executing locally: repeated runs are served from the
// daemon's content-addressed result cache (byte-identical to a cold run),
// the text renders exactly as a local run's would, and the exit code
// mirrors the local semantics via each job's exit hint.
//
// Run hardening: -maxevents and -celltimeout arm a per-cell watchdog that
// kills runaway or livelocked cells; each kill (or panic) degrades to a
// structured failure record in the report, and -diagdir writes one
// replayable crash-diagnostics bundle per failed cell. SIGINT cancels
// in-flight cells and still emits a valid partial report marked
// "incomplete".
//
// Exit codes: 0 success, 1 failed cells or failed scenario assertions (or
// runtime error), 2 usage, 3 incomplete (canceled by SIGINT or a fatal
// wall-clock breach).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"vswapsim/internal/experiment"
	"vswapsim/internal/scenario"
	"vswapsim/internal/serve"
	"vswapsim/internal/swapback"
)

// Exit codes.
const (
	exitOK         = 0
	exitFailures   = 1
	exitUsage      = 2
	exitIncomplete = 3
)

// usageHeader precedes the flag listing in -h output; the usage test
// asserts it stays in sync with the actual command forms.
const usageHeader = `Usage:
  vswapsim -list
  vswapsim -run <id> [flags]
  vswapsim run <scenario.yaml> [flags]
  vswapsim report [-only <ids>] [-o <file>] [-csv <dir>] [flags]
  vswapsim validate <scenario.yaml>...

Flags:
`

// Command forms that take flags; the -list/-run form is "".
const (
	formRun    = "run"
	formReport = "report"
)

// cliConfig holds one parsed command line: the run knobs plus the output
// options of its form.
type cliConfig struct {
	opts experiment.Options

	list bool   // -list form
	run  string // -run form
	// report form
	report bool
	only   string
	out    string
	csvDir string

	jsonOut    bool
	diagDir    string
	cpuProfile string
	memProfile string
	server     string
}

// newFlagSet registers the flags of one command form on a fresh FlagSet.
func newFlagSet(form string, c *cliConfig) *flag.FlagSet {
	fs := flag.NewFlagSet(strings.TrimSpace("vswapsim "+form), flag.ContinueOnError)
	switch form {
	case "":
		fs.BoolVar(&c.list, "list", false, "list available experiments")
		fs.StringVar(&c.run, "run", "", "experiment id to run (e.g. fig3)")
	case formReport:
		fs.StringVar(&c.only, "only", "", "comma-separated experiment id filter (e.g. fig5,fig11; default: the whole registry)")
		fs.StringVar(&c.out, "o", "", "also write the text report to this file")
		fs.StringVar(&c.csvDir, "csv", "", "also write each table as CSV into this directory")
	}
	c.opts.BindFlags(fs)
	fs.BoolVar(&c.jsonOut, "json", false,
		"emit the machine-readable report (tables + per-run counters/histograms/phases) as JSON")
	fs.StringVar(&c.diagDir, "diagdir", "",
		"write one replayable crash-diagnostics bundle (JSON) per failed cell into this directory")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&c.server, "server", "",
		"run via a vswapsimd daemon at this base URL (e.g. http://127.0.0.1:8080); repeated runs hit its result cache")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usageHeader)
		fs.PrintDefaults()
	}
	return fs
}

// parseArgs parses the flags of one command form (args without the
// program and form names). Flag syntax errors are reported on stderr by
// the FlagSet itself.
func parseArgs(form string, args []string) (cliConfig, error) {
	c := cliConfig{report: form == formReport}
	fs := newFlagSet(form, &c)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := c.opts.Validate(); err != nil {
		return c, err
	}
	if c.server != "" && (c.diagDir != "" || c.csvDir != "" || (c.report && c.jsonOut)) {
		return c, errors.New("-diagdir, -csv and report -json are local-only with -server; the daemon keeps diagnostics (see its -diagdir) and serves one document per job")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	form := ""
	if len(args) > 0 {
		switch args[0] {
		case "validate":
			return validateCmd(args[1:], stdout, stderr)
		case formRun, formReport:
			form, args = args[0], args[1:]
		}
	}
	prog := strings.TrimSpace("vswapsim " + form)
	var path string
	if form == formRun {
		if len(args) == 0 || strings.HasPrefix(args[0], "-") {
			fmt.Fprintln(stderr, "vswapsim run: missing scenario path (usage: vswapsim run <scenario.yaml> [flags])")
			return exitUsage
		}
		path, args = args[0], args[1:]
	}
	c, err := parseArgs(form, args)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(stderr, "%s: %v (run '%s -h' for usage)\n", prog, err, prog)
		}
		return exitUsage
	}

	switch {
	case form == formRun:
		return runScenarioCmd(c, path, stdout, stderr)
	case form == formReport:
		exps, err := selectExperiments(c.only)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
		jobs := make([]job, len(exps))
		for i, e := range exps {
			jobs[i] = job{exp: e}
		}
		return execute(c, jobs, stdout, stderr)
	case c.list || c.run == "":
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiment.Registry {
			fmt.Fprintf(stdout, "  %-9s %-45s (%s)\n", e.ID, e.Title, e.PaperNote)
		}
		fmt.Fprintln(stdout, "\ndeclarative scenarios run with: vswapsim run <scenario.yaml> (see scenarios/)")
		if c.run == "" && !c.list {
			return exitUsage
		}
		return exitOK
	}
	e, err := experiment.ByID(c.run)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFailures
	}
	return execute(c, []job{{exp: e}}, stdout, stderr)
}

// selectExperiments applies the -only filter (a comma-separated id list)
// to the registry, preserving the caller's order.
func selectExperiments(only string) ([]experiment.Experiment, error) {
	if only == "" {
		return experiment.Registry, nil
	}
	var out []experiment.Experiment
	for _, id := range strings.Split(only, ",") {
		e, err := experiment.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// runScenarioCmd implements `vswapsim run <scenario.yaml> [flags]`. The
// scenario is checked against the knobs here, on the local and the
// -server path alike, so a conflict is a usage error either way.
func runScenarioCmd(c cliConfig, path string, stdout, stderr io.Writer) int {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim run: %v\n", err)
		return exitUsage
	}
	opts, err := c.opts.ForScenario(sc)
	if err != nil {
		fmt.Fprintf(stderr, "vswapsim run: %v (run 'vswapsim run -h' for usage)\n", err)
		return exitUsage
	}
	// A daemon job ships the scenario text and the knobs as given; the
	// daemon applies the same declarations itself.
	if c.server == "" {
		c.opts = opts
	}
	return execute(c, []job{{exp: experiment.FromScenario(sc), scenario: path}}, stdout, stderr)
}

// validateCmd implements `vswapsim validate <scenario.yaml>...`.
func validateCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "vswapsim validate: no scenario files given (usage: vswapsim validate <scenario.yaml>...)")
		return exitUsage
	}
	bad := 0
	for _, path := range args {
		sc, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "INVALID %s: %v\n", path, err)
			bad++
			continue
		}
		// The axis the grid compares: remediation policies in cluster
		// mode, schemes otherwise.
		n, one, many := len(sc.Schemes), "scheme", "schemes"
		if sc.Mode == scenario.ModeCluster {
			n, one, many = len(sc.Cluster.Remediations), "remediation policy", "remediation policies"
		}
		if n == 1 {
			many = one
		}
		fmt.Fprintf(stdout, "ok %s (%s, %s mode, %d %s)\n", path, sc.Name, sc.Mode, n, many)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "%d of %d scenario file(s) invalid\n", bad, len(args))
		return exitFailures
	}
	return exitOK
}

// job is one experiment an invocation runs. scenario is the scenario
// file it was compiled from ("" for registry experiments); it names the
// replay command and, with -server, the text the daemon job carries.
type job struct {
	exp      experiment.Experiment
	scenario string
}

// execute runs the jobs — locally, or as vswapsimd jobs with -server —
// and reports them through one path: each experiment's text report
// (rendered from its JSON form, so a served run prints what a local run
// prints) with a trailer line and its failed cells, as each completes.
// With -json the text goes to -o or nowhere, and stdout carries the
// document. The exit code is the worst over all experiments.
func execute(c cliConfig, jobs []job, stdout, stderr io.Writer) int {
	// SIGINT/SIGTERM cancel in-flight cells via the watchdog poll; the
	// partial report is still emitted, marked incomplete. stop doubles as
	// the fatal-breach cancel hook.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := stdout
	if c.jsonOut {
		w = io.Discard
	}
	if c.out != "" {
		f, err := os.Create(c.out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
		defer f.Close()
		if c.jsonOut {
			w = f
		} else {
			w = io.MultiWriter(stdout, f)
		}
	}
	o := c.opts
	if c.report {
		fmt.Fprintf(w, "VSwapper reproduction report (seed=%d scale=%.2f quick=%v parallel=%d)\n\n",
			o.Seed, o.Scale, o.Quick, o.Parallel)
		if !o.Faults.Empty() {
			fmt.Fprintf(w, "fault injection active: %s (auditevery=%d)\n\n", o.Faults, o.AuditEvery)
		}
		if o.Swapback != swapback.HDD || o.SwapPolicy != swapback.PolicyWriteback {
			fmt.Fprintf(w, "swap backend: %s (policy %s)\n\n", o.Swapback, o.SwapPolicy)
		}
	}
	show := func(rep *experiment.JSONReport, trailer string) {
		fmt.Fprint(w, rep.Render())
		fmt.Fprintln(w, trailer)
		if len(rep.Failures) > 0 {
			printFailures(w, rep.Failures)
		}
		if c.report {
			fmt.Fprintln(w)
		}
	}

	start := time.Now()
	var code int
	if c.server != "" {
		code = runRemote(ctx, c, jobs, show, stdout, stderr)
	} else {
		o.Ctx, o.CancelRun = ctx, stop
		code = runLocal(o, c, jobs, show, stdout, stderr)
	}
	if c.report {
		fmt.Fprintf(w, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
	}
	if code == exitIncomplete {
		fmt.Fprintln(w, "\nRUN INCOMPLETE: canceled before every cell finished")
	}
	return code
}

// runLocal executes the jobs on the in-process executor, streaming each
// result to show in input order, writing -csv tables and -diagdir
// bundles as results arrive, and the JSON document at the end.
func runLocal(o experiment.Options, c cliConfig, jobs []job, show func(*experiment.JSONReport, string), stdout, stderr io.Writer) int {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
		defer pprof.StopCPUProfile()
	}
	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
	}

	exps := make([]experiment.Experiment, len(jobs))
	for i, j := range jobs {
		exps[i] = j.exp
	}
	code := exitOK
	var reps []*experiment.JSONReport
	experiment.RunAll(exps, o, func(r experiment.RunResult) {
		j := jobs[len(reps)]
		rep := experiment.BuildJSON(r.Report, r.Runs, r.Failures)
		reps = append(reps, rep)
		show(rep, fmt.Sprintf("(%s generated in %v, -parallel %d)",
			rep.ID, r.Elapsed.Round(time.Millisecond), o.Parallel))
		if len(r.Failures) > 0 || r.Report.AssertionFailures > 0 {
			code = exitFailures
		}
		if c.csvDir != "" {
			for i, tab := range r.Report.Tables {
				name := filepath.Join(c.csvDir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
				if err := os.WriteFile(name, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintln(stderr, err)
				}
			}
		}
		if c.diagDir != "" && len(r.Failures) > 0 {
			replay := experiment.ReplayCommand(rep.ID, j.scenario, o)
			paths, err := experiment.WriteDiagBundles(c.diagDir, "vswapsim", rep.ID, replay, o, r.Failures)
			if err != nil {
				fmt.Fprintln(stderr, err)
			} else {
				fmt.Fprintf(stderr, "wrote %d crash-diagnostics bundle(s) to %s\n", len(paths), c.diagDir)
			}
		}
	})
	if o.Ctx.Err() != nil {
		code = exitIncomplete
	}

	if c.jsonOut {
		doc := experiment.BuildJSONDocument(o, reps)
		doc.Incomplete = code == exitIncomplete
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return exitFailures
		}
	}
	return code
}

// runRemote is the thin -server client: one daemon job per experiment,
// in order, each rendered through show from the returned document. With
// -json the daemon's document is printed verbatim (cache hits are
// byte-identical to cold runs by the daemon's contract). The exit code is
// the worst job exit hint.
func runRemote(ctx context.Context, c cliConfig, jobs []job, show func(*experiment.JSONReport, string), stdout, stderr io.Writer) int {
	client := serve.NewClient(c.server)
	code := exitOK
	for _, j := range jobs {
		req := serve.RequestFor(j.exp.ID, "", c.opts)
		if j.scenario != "" {
			data, err := os.ReadFile(j.scenario)
			if err != nil {
				fmt.Fprintf(stderr, "vswapsim: %v\n", err)
				return exitUsage
			}
			req = serve.RequestFor("", string(data), c.opts)
		}
		st, err := client.Run(ctx, req)
		if err != nil {
			fmt.Fprintf(stderr, "vswapsim: %s: %v\n", j.exp.ID, err)
			return exitFailures
		}
		if st.Error != "" {
			fmt.Fprintf(stderr, "vswapsim: job %s failed: %s\n", st.JobID, st.Error)
		}
		code = max(code, st.ExitHint)
		if len(st.Document) == 0 {
			continue
		}
		if c.jsonOut {
			stdout.Write(st.Document)
			io.WriteString(stdout, "\n")
		}
		var doc experiment.JSONDocument
		if err := json.Unmarshal(st.Document, &doc); err != nil {
			fmt.Fprintf(stderr, "vswapsim: bad document from server: %v\n", err)
			return exitFailures
		}
		cache := "miss"
		if st.Cached {
			cache = "hit"
		}
		for _, rep := range doc.Experiments {
			show(rep, fmt.Sprintf("(%s served by %s: job %s, cache %s)", rep.ID, c.server, st.JobID, cache))
		}
	}
	return code
}

// printFailures renders the failure records of a run as text, including
// the trace-ring tail each record captured at the kill site.
func printFailures(w io.Writer, fails []experiment.FailureRecord) {
	fmt.Fprintf(w, "\n%d cell(s) FAILED:\n", len(fails))
	for _, f := range fails {
		fmt.Fprintf(w, "  [%s] %s\n    %s\n", f.Kind, f.Label, f.Message)
		if n := len(f.Trace); n > 0 {
			for _, ev := range f.Trace[max(0, n-4):] {
				fmt.Fprintf(w, "    trace %8dns %-9s %s\n", ev.AtNS, ev.Kind, ev.Msg)
			}
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
