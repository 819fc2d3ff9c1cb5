package experiment

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/workload"
)

// This file compiles a validated scenario.Scenario onto the experiment
// machinery: runSingle for controlled-memory runs, dynamicGrid for
// phased fleets and clusterPolicies for multi-host policy grids, the same
// cells the hand-coded figures use. The scenario name keys every cell's
// seed derivation. The registry's fig3, fig9, fig14 and fleetN entries
// are scenario files run through here (see registry.go), so
// `vswapsim run scenarios/fig3.yaml` and `vswapsim -run fig3` reach one
// definition.

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

func runScenario(sc *scenario.Scenario, o Options) *Report {
	o = o.normalized().withScenario(sc).withTier(sc)
	// Timeline injection stays live unless an explicit fault plan replaced
	// the scenario's own (see ForScenario).
	timelineFaults := o.Faults == sc.Faults
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
	// Met.Diff per iteration, the runtime panel reads the cell's iterations.
	iters := scenarioIters(o, sc.Workload)
	panelData := make([]map[scenario.Scheme][]string, len(sc.Panels))
	for i := range panelData {
		panelData[i] = make(map[scenario.Scheme][]string)
	}

	// Schemes run serially with the invocation seed, exactly like the
	// hand-coded single-guest figures. With more than one declared backend
	// the whole scheme grid repeats per tier (panels and timelines are
	// rejected by validation there), each tier on its own derived seed so
	// the tiers' streams stay independent; a single backend is o's tier
	// (see withTier) and keeps the invocation seed, so a scenario equals
	// the -swapback CLI form exactly. Timeline notes go straight into the
	// report, in run order.
	kinds := sc.Backends
	multi := len(kinds) > 1
	if !multi {
		kinds = []swapback.Kind{o.Swapback}
	}
	var cells []cell
	for _, k := range kinds {
		ko := o
		ko.Swapback = k
		if multi {
			ko.Seed = sim.DeriveSeed(o.Seed, "swapback", k.String())
		}
		for _, ref := range sc.Schemes {
			s := ref.Scheme
			var lastSnap map[string]int64
			c := runSingle(runCfg{
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
							if pn.Counter != "" {
								panelData[i][s] = append(panelData[i][s],
									fmt.Sprintf("%.1f", float64(d[pn.Counter])/pn.Per))
							}
						}
					}
				}
				job := scenarioJob(ko, sc.Workload, vm, after)
				if len(sc.Timeline) > 0 {
					runTimeline(sc, ko, vm, job, timelineFaults, s.String(), &rep.Notes)
				}
				return job
			})
			for i, pn := range sc.Panels {
				if pn.Counter == "" {
					for _, it := range c.iters {
						panelData[i][s] = append(panelData[i][s], secs(it))
					}
				}
			}
			cells = append(cells, c)
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
		for i, c := range cells {
			name := c.scheme.String()
			if multi {
				name = c.tier.String() + "/" + name
			}
			row := []string{name, runtimeSecs(c)}
			if withPaper {
				row = append(row, sc.Schemes[i%len(sc.Schemes)].Paper)
			}
			tab.Add(row...)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	for i, pn := range sc.Panels {
		tab := &Table{Title: pn.Title, Columns: []string{"iteration"}}
		for _, ref := range sc.Schemes {
			tab.Columns = append(tab.Columns, ref.Scheme.String())
		}
		for it := 0; it < iters; it++ {
			row := []string{fmt.Sprintf("%d", it+1)}
			for _, ref := range sc.Schemes {
				if col := panelData[i][ref.Scheme]; it < len(col) {
					row = append(row, col[it])
				} else {
					row = append(row, "-")
				}
			}
			tab.Add(row...)
		}
		rep.Tables = append(rep.Tables, tab)
	}
	evalAssertions(sc, rep, cells)
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
	counts := sc.Fleet.Counts
	if o.Quick && len(sc.Fleet.QuickCounts) > 0 {
		counts = sc.Fleet.QuickCounts
	}
	schemes := make([]scenario.Scheme, len(sc.Schemes))
	for i, ref := range sc.Schemes {
		schemes[i] = ref.Scheme
	}
	cells := dynamicGrid(o, sc.Name, counts, schemes, sc.Fleet, sc.Workload)
	rep.Tables = append(rep.Tables,
		pivot(sc.TableTitle, "guests", cells, cell.guestsLabel, cell.schemeLabel, fleetRuntime))
	evalAssertions(sc, rep, cells)
}

// ---- cluster mode ----

// runScenarioCluster compiles the cluster stanza onto the grid clusterN
// uses: one guest count, the stanza's remediation policies as columns,
// each cell on its own derived seed.
func runScenarioCluster(sc *scenario.Scenario, o Options, rep *Report) {
	grid, tab := clusterPolicies(o, sc.Name, sc, []int{sc.Cluster.Guests})
	rep.Tables = append(rep.Tables, tab)
	evalAssertions(sc, rep, grid)
}
