package experiment

import (
	"fmt"

	"vswapsim/internal/cluster"
	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/workload"
)

// This file compiles a validated scenario.Scenario onto the experiment
// machinery: runSingle for controlled-memory runs, dynamicGrid for
// phased fleets and clusterGrid for multi-host policy grids, the same
// cells the hand-coded figures use. The scenario name keys every cell's
// seed derivation. The registry's fig3, fig9, fig14 and fleetN entries
// are scenario files run through here (see registry.go), so
// `vswapsim run scenarios/fig3.yaml` and `vswapsim -run fig3` reach one
// definition.

// schemeByName maps scenario scheme identifiers onto Scheme values. It
// must agree with Scheme.String and scenario.SchemeNames (enforced by
// TestSchemeNamesAgree).
var schemeByName = map[string]Scheme{
	"baseline":      Baseline,
	"balloon+base":  BalloonBase,
	"mapper":        MapperOnly,
	"vswapper":      VSwapper,
	"balloon+vswap": BalloonVSwapper,
}

// FromScenario compiles a validated scenario into a runnable Experiment.
func FromScenario(sc *scenario.Scenario) Experiment {
	return Experiment{
		ID:        sc.Name,
		Title:     sc.Title,
		PaperNote: sc.PaperNote,
		Run:       func(o Options) *Report { return runScenario(sc, o) },
	}
}

// scenarioJob launches the workload a scenario declares on vm. after,
// when non-nil, is wired as the per-iteration hook (seqread only).
func scenarioJob(o Options, w scenario.Workload, vm *hyper.VM, after func(int)) *workload.Job {
	switch w.Kind {
	case scenario.KindSeqRead:
		return workload.SeqRead(vm, workload.SeqReadConfig{
			FileMB:         o.mb(w.FileMB),
			Iterations:     scenarioIters(o, w),
			AfterIteration: after,
		})
	case scenario.KindAllocTouch:
		return workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(w.SizeMB)})
	case scenario.KindMetis:
		return workload.Metis(vm, workload.MetisConfig{
			InputMB: o.mb(w.InputMB),
			TableMB: o.mb(w.TableMB),
		})
	}
	panic("experiment: unreachable workload kind " + w.Kind) // validation rejects others
}

// scenarioIters resolves the iteration count under -quick. Zero means
// "workload default" (one pass), matching the hand-coded figures that
// omit Iterations.
func scenarioIters(o Options, w scenario.Workload) int {
	if o.Quick && w.QuickIterations > 0 {
		return w.QuickIterations
	}
	return w.Iterations
}

// scenarioKinds resolves which backend tiers the scenario runs against:
// the declared backend list, or the invocation's -swapback (default hdd)
// when the scenario declares none.
func scenarioKinds(sc *scenario.Scenario, o Options) []swapback.Kind {
	if len(sc.Backends) == 0 {
		return []swapback.Kind{o.Swapback}
	}
	kinds := make([]swapback.Kind, len(sc.Backends))
	for i, name := range sc.Backends {
		k, err := swapback.ParseKind(name)
		if err != nil {
			panic("experiment: invalid scenario backend " + name) // validation rejects
		}
		kinds[i] = k
	}
	return kinds
}

func runScenario(sc *scenario.Scenario, o Options) *Report {
	o = o.normalized().withScenario(sc)
	// Timeline injection stays live unless an explicit fault plan replaced
	// the scenario's own (see ForScenario).
	timelineFaults := o.Faults == sc.Faults
	if sc.Policy != "" {
		p, err := swapback.ParsePolicy(sc.Policy)
		if err != nil {
			panic("experiment: invalid scenario policy " + sc.Policy) // validation rejects
		}
		o.SwapPolicy = p
	}
	rep := &Report{ID: sc.Name, Title: sc.Title, PaperNote: sc.PaperNote}
	switch sc.Mode {
	case scenario.ModeDynamic:
		runScenarioDynamic(sc, o, rep)
	case scenario.ModeCluster:
		runScenarioCluster(sc, o, rep)
	default:
		runScenarioSingle(sc, o, rep, timelineFaults)
	}
	return rep
}

// ---- single mode ----

// singleOut is what the report needs of one scheme's finished run: its
// result, its counter deltas, and the notes its timeline events
// produced. It holds no machine, so a cell's simulator state is garbage
// as soon as the cell returns.
type singleOut struct {
	res   workload.Result
	met   map[string]int64
	notes []string
}

func runScenarioSingle(sc *scenario.Scenario, o Options, rep *Report, timelineFaults bool) {
	// The timeline's inject_faults plan is built into every machine
	// disarmed, then armed at its event time; a CLI -faults override
	// drops the event (the machine already runs the CLI plan, always on).
	var injectPlan *scenario.Event
	for i := range sc.Timeline {
		if sc.Timeline[i].Kind == scenario.EvInjectFaults {
			injectPlan = &sc.Timeline[i]
		}
	}
	var hostTweak func(*hyper.MachineConfig)
	if injectPlan != nil && timelineFaults {
		ev := injectPlan
		hostTweak = func(mc *hyper.MachineConfig) {
			mc.Faults = ev.Faults
			mc.FaultsDisarmed = true
		}
	}

	// Panels reproduce the Fig. 9 shape: counter panels sample one shared
	// Met.Diff per iteration, the runtime panel reads res.Iterations.
	iters := scenarioIters(o, sc.Workload)
	panelData := make([]map[string][]string, len(sc.Panels))
	for i := range panelData {
		panelData[i] = make(map[string][]string)
	}

	// Schemes run serially with the invocation seed, exactly like the
	// hand-coded single-guest figures. With more than one declared backend
	// the whole scheme grid repeats per tier (panels and timelines are
	// rejected by validation there), each tier on its own derived seed so
	// the tiers' streams stay independent; a single backend keeps the
	// invocation seed so a scenario equals the -swapback CLI form exactly.
	kinds := scenarioKinds(sc, o)
	multi := len(kinds) > 1
	cellKey := func(k swapback.Kind, schemeName string) string {
		if multi {
			return k.String() + "/" + schemeName
		}
		return schemeName
	}
	results := make(map[string]singleOut, len(kinds)*len(sc.Schemes))
	for _, k := range kinds {
		ko := o
		ko.Swapback = k
		if multi {
			ko.Seed = sim.DeriveSeed(o.Seed, "swapback", k.String())
		}
		for _, ref := range sc.Schemes {
			ref := ref
			s := schemeByName[ref.Name]
			var notes []string
			var lastSnap map[string]int64
			out := runSingle(runCfg{
				opts: ko, scheme: s,
				guestMB:         sc.Fleet.MemoryMB,
				actualMB:        sc.Fleet.ActualMB,
				hostMB:          sc.Fleet.HostMB,
				vcpus:           sc.Fleet.VCPUs,
				warmup:          sc.Fleet.Warmup,
				balloonMarginMB: sc.Fleet.BalloonMarginMB,
				hostTweak:       hostTweak,
			}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
				var after func(int)
				if len(sc.Panels) > 0 {
					lastSnap = vm.M.Met.Snapshot()
					after = func(int) {
						d := vm.M.Met.Diff(lastSnap)
						lastSnap = vm.M.Met.Snapshot()
						for i, pn := range sc.Panels {
							if pn.Source == "counter" {
								panelData[i][ref.Name] = append(panelData[i][ref.Name],
									fmt.Sprintf("%.1f", float64(d[pn.Counter])/pn.Per))
							}
						}
					}
				}
				job := scenarioJob(ko, sc.Workload, vm, after)
				if len(sc.Timeline) > 0 {
					runTimeline(sc, ko, vm, job, timelineFaults, ref.Name, &notes)
				}
				return job
			})
			for i, pn := range sc.Panels {
				if pn.Source == "runtime" {
					for _, it := range out.res.Iterations {
						panelData[i][ref.Name] = append(panelData[i][ref.Name], secs(it))
					}
				}
			}
			results[cellKey(k, ref.Name)] = singleOut{res: out.res, met: out.met, notes: notes}
		}
	}

	if sc.TableTitle != "" {
		withPaper := false
		for _, ref := range sc.Schemes {
			if ref.Paper != "" {
				withPaper = true
			}
		}
		cols := []string{"config", "runtime"}
		if withPaper {
			cols = append(cols, "paper")
		}
		tab := &Table{Title: sc.TableTitle, Columns: cols}
		for _, k := range kinds {
			for _, ref := range sc.Schemes {
				name := cellKey(k, ref.Name)
				row := []string{name, runtimeOrKilled(results[name].res)}
				if withPaper {
					row = append(row, ref.Paper)
				}
				tab.Add(row...)
			}
		}
		rep.Tables = append(rep.Tables, tab)
	}
	for i, pn := range sc.Panels {
		tab := &Table{Title: pn.Title, Columns: []string{"iteration"}}
		for _, ref := range sc.Schemes {
			tab.Columns = append(tab.Columns, ref.Name)
		}
		for it := 0; it < iters; it++ {
			row := []string{fmt.Sprintf("%d", it+1)}
			for _, ref := range sc.Schemes {
				if it < len(panelData[i][ref.Name]) {
					row = append(row, panelData[i][ref.Name][it])
				} else {
					row = append(row, "-")
				}
			}
			tab.Add(row...)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	for _, k := range kinds {
		for _, ref := range sc.Schemes {
			rep.Notes = append(rep.Notes, results[cellKey(k, ref.Name)].notes...)
		}
	}

	evalAssertions(sc, rep, func(backend, schemeName, metric string) float64 {
		key := schemeName
		if multi {
			key = backend + "/" + schemeName
		}
		out := results[key]
		switch metric {
		case scenario.MetricRuntimeSec:
			return out.res.Runtime().Seconds()
		case scenario.MetricKilled:
			if out.res.Killed {
				return 1
			}
			return 0
		default:
			return float64(out.met[metric])
		}
	})
}

// runTimeline starts the scenario's event schedule as a simulation
// process. Event times are virtual seconds after the measured body
// starts; events apply only while the primary job is still running, so a
// finished run skips the tail (at most one pending sleep remains, which
// is deterministic).
func runTimeline(sc *scenario.Scenario, o Options, vm *hyper.VM, job *workload.Job,
	timelineFaults bool, schemeName string, notes *[]string) {
	vm.M.Env.Go("timeline", func(tp *sim.Proc) {
		prev := 0.0
		for _, ev := range sc.Timeline {
			if d := sim.Duration((ev.AtSec - prev) * float64(sim.Second)); d > 0 {
				tp.Sleep(d)
			}
			prev = ev.AtSec
			if job.Finished() {
				return
			}
			switch ev.Kind {
			case scenario.EvBalloonSet:
				target := 0
				if ev.TargetMB > 0 {
					target = o.pages(ev.TargetMB)
				}
				vm.OS.SetBalloonTarget(target)
			case scenario.EvWorkloadPhase:
				scenarioJob(o, *ev.Workload, vm, nil) // background; never waited on
			case scenario.EvInjectFaults:
				if timelineFaults {
					vm.M.Inj.SetEnabled(true)
				}
			case scenario.EvMigrate:
				res := vm.Migrate(tp, hyper.MigrationConfig{
					BandwidthMBps: ev.BandwidthMBps,
					UseMappings:   ev.UseMappings,
				})
				*notes = append(*notes, fmt.Sprintf(
					"%s: migrate at %gs sent %.1f MB in %.3fs (mapping-only %d pages, skipped %d)",
					schemeName, ev.AtSec, float64(res.BytesSent)/(1<<20),
					res.Duration.Seconds(), res.Plan.MappingOnly, res.Plan.Skippable))
			}
		}
	})
}

// ---- dynamic mode ----

func runScenarioDynamic(sc *scenario.Scenario, o Options, rep *Report) {
	// Dynamic mode fans out per (count, scheme) already; validation caps it
	// at one declared backend, which simply replaces the invocation tier.
	o.Swapback = scenarioKinds(sc, o)[0]
	counts := sc.Fleet.Counts
	if o.Quick && len(sc.Fleet.QuickCounts) > 0 {
		counts = sc.Fleet.QuickCounts
	}
	schemes := make([]Scheme, len(sc.Schemes))
	for i, ref := range sc.Schemes {
		schemes[i] = schemeByName[ref.Name]
	}
	grid := dynamicGrid(o, sc.Name, counts, schemes, sc.Fleet, sc.Workload)

	tab := &Table{Title: sc.TableTitle, Columns: []string{"guests"}}
	for _, ref := range sc.Schemes {
		tab.Columns = append(tab.Columns, ref.Name)
	}
	for i, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range schemes {
			row = append(row, renderDynCell(grid[i*len(schemes)+j]))
		}
		tab.Add(row...)
	}
	rep.Tables = append(rep.Tables, tab)

	cell := func(schemeName string, guests int) (dynOut, bool) {
		row := -1
		if guests == 0 { // default: the largest count in this run
			for i, n := range counts {
				if row < 0 || n > counts[row] {
					row = i
				}
			}
		} else {
			for i, n := range counts {
				if n == guests {
					row = i
				}
			}
		}
		if row < 0 {
			return dynOut{}, false
		}
		for j, ref := range sc.Schemes {
			if ref.Name == schemeName {
				return grid[row*len(schemes)+j], true
			}
		}
		return dynOut{}, false
	}
	evalAssertionsDynamic(sc, rep, cell)
}

// ---- cluster mode ----

// runScenarioCluster compiles the cluster stanza onto the grid clusterN
// uses: one guest count, the stanza's remediation policies as columns,
// each cell on its own derived seed.
func runScenarioCluster(sc *scenario.Scenario, o Options, rep *Report) {
	// A declared backend replaces the invocation tier (at most one,
	// enforced by validation); no declaration keeps the CLI -swapback.
	o.Swapback = scenarioKinds(sc, o)[0]
	grid, tab := clusterPolicies(o, sc.Name, sc, []int{sc.Cluster.Guests}, o.Swapback)
	rep.Tables = append(rep.Tables, tab)

	evalAssertionsCluster(sc, rep, func(remedy string) (clusterOut, bool) {
		for i, name := range sc.Cluster.Remediations {
			if name == remedy {
				return grid[i], true
			}
		}
		return clusterOut{}, false
	})
}

// clusterPackingByName resolves a validated packing identifier.
func clusterPackingByName(name string) cluster.Packing {
	p, ok := cluster.PackingNames[name]
	if !ok {
		panic("experiment: invalid scenario packing " + name) // validation rejects
	}
	return p
}

// evalAssertionsCluster checks cluster-mode assertions: the scheme slots
// of an assertion name remediation policies, and metrics resolve through
// clusterMetricValue (latency quantiles plus cluster.* counters).
func evalAssertionsCluster(sc *scenario.Scenario, rep *Report, cell func(remedy string) (clusterOut, bool)) {
	if len(sc.Assertions) == 0 {
		return
	}
	passed := 0
	for _, a := range sc.Assertions {
		var left, right float64
		if a.Threshold() {
			c, _ := cell(a.Scheme)
			left, right = clusterMetricValue(c, a.Counter), a.Value
		} else {
			cl, _ := cell(a.Left)
			cr, _ := cell(a.Right)
			left, right = clusterMetricValue(cl, a.Counter), clusterMetricValue(cr, a.Counter)
		}
		if a.Compare(left, right) {
			passed++
			continue
		}
		rep.AssertionFailures++
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("ASSERTION FAILED: %s (left=%g right=%g)", a.String(), left, right))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("assertions: %d/%d passed", passed, len(sc.Assertions)))
}

// ---- assertions ----

// evalAssertions checks single-mode assertions with val resolving
// (backend, scheme, metric) triples, appending deterministic notes and
// counting failures into the report. An assertion without a backend
// selector reads the first declared backend ("" when the scenario
// declares none and the grid is the invocation tier).
func evalAssertions(sc *scenario.Scenario, rep *Report, val func(backend, scheme, metric string) float64) {
	if len(sc.Assertions) == 0 {
		return
	}
	passed := 0
	for _, a := range sc.Assertions {
		backend := a.Backend
		if backend == "" && len(sc.Backends) > 0 {
			backend = sc.Backends[0]
		}
		var left, right float64
		if a.Threshold() {
			left, right = val(backend, a.Scheme, a.Counter), a.Value
		} else {
			left, right = val(backend, a.Left, a.Counter), val(backend, a.Right, a.Counter)
		}
		if a.Compare(left, right) {
			passed++
			continue
		}
		rep.AssertionFailures++
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("ASSERTION FAILED: %s (left=%g right=%g)", a.String(), left, right))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("assertions: %d/%d passed", passed, len(sc.Assertions)))
}

// evalAssertionsDynamic checks dynamic-mode assertions against grid
// cells. An assertion whose guest count is absent from this run (e.g. a
// -quick run with trimmed counts) is skipped with a note rather than
// failed, so quick and full runs both stay meaningful.
func evalAssertionsDynamic(sc *scenario.Scenario, rep *Report, cell func(scheme string, guests int) (dynOut, bool)) {
	if len(sc.Assertions) == 0 {
		return
	}
	passed, skipped := 0, 0
	metric := func(c dynOut, name string) float64 {
		switch name {
		case scenario.MetricMeanRuntimeSec:
			return c.mean.Seconds()
		case scenario.MetricKilled:
			return float64(c.killed)
		}
		return 0
	}
	for _, a := range sc.Assertions {
		var left, right float64
		ok := true
		if a.Threshold() {
			c, found := cell(a.Scheme, a.Guests)
			ok = found
			left, right = metric(c, a.Counter), a.Value
		} else {
			cl, foundL := cell(a.Left, a.Guests)
			cr, foundR := cell(a.Right, a.Guests)
			ok = foundL && foundR
			left, right = metric(cl, a.Counter), metric(cr, a.Counter)
		}
		if !ok {
			skipped++
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("assertion skipped (guests %d not in this run): %s", a.Guests, a.String()))
			continue
		}
		if a.Compare(left, right) {
			passed++
			continue
		}
		rep.AssertionFailures++
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("ASSERTION FAILED: %s (left=%g right=%g)", a.String(), left, right))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("assertions: %d/%d passed (%d skipped)", passed, len(sc.Assertions)-skipped, skipped))
}
