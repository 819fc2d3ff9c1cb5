package experiment

import (
	"fmt"
	"strconv"

	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/workload"
)

// This file compiles a validated scenario.Scenario onto the experiment
// machinery: runSingle for controlled-memory runs, dynamicGrid for
// phased fleets and clusterPolicies for multi-host policy grids, the same
// cells the hand-coded figures use. The scenario name keys the seed
// derivation of every sweep, dynamic and cluster cell, and the scenario's
// source digest keys its single-mode and dynamic cells in the
// invocation's memo. The registry's fig3, fig5, fig9, fig12, fig13, fig14
// and fleetN entries are scenario files run through here, and fig4, fig11
// and backendN render cells of fig14.yaml, pbzip.yaml and backends.yaml
// (see registry.go), so `vswapsim run scenarios/fig3.yaml` and
// `vswapsim -run fig3` reach one definition, and a report that runs both
// simulates their cells once.

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
			Iterations:     w.Iters(o.Quick),
			AfterIteration: after,
		})
	case scenario.KindAllocTouch:
		return workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(w.SizeMB)})
	case scenario.KindMetis:
		return workload.Metis(vm, workload.MetisConfig{
			InputMB: o.mb(w.InputMB),
			TableMB: o.mb(w.TableMB),
		})
	case scenario.KindPbzip2:
		return workload.Pbzip2(vm, workload.Pbzip2Config{
			InputMB:      o.mb(w.InputMB),
			WorkingPages: o.count(workload.Pbzip2WorkingPages),
		})
	case scenario.KindKernbench:
		return workload.Kernbench(vm, workload.KernbenchConfig{Files: o.count(w.FileCount(o.Quick))})
	case scenario.KindEclipse:
		return workload.Eclipse(vm, workload.EclipseConfig{
			HeapMB:      o.mb(w.HeapMB),
			JVMAnonMB:   o.mb(w.JVMAnonMB),
			WorkspaceMB: o.mb(w.WorkspaceMB),
			Iterations:  w.Iters(o.Quick),
		})
	}
	panic("experiment: unreachable workload kind " + w.Kind) // validation rejects others
}

// scenarioOpts folds a scenario's declarations into o the way every grid
// that reads the scenario's cells runs them, so that a registry view of a
// file and the file itself key their cells alike.
func scenarioOpts(sc *scenario.Scenario, o Options) Options {
	return o.normalized().withScenario(sc).withTier(sc)
}

func runScenario(sc *scenario.Scenario, o Options) *Report {
	o = scenarioOpts(sc, o)
	rep := &Report{ID: sc.Name, Title: sc.Title, PaperNote: sc.PaperNote}
	switch sc.Mode {
	case scenario.ModeDynamic:
		rep.cells = dynamicGrid(o, sc, sc.Fleet.GuestCounts(o.Quick))
		rep.Tables = append(rep.Tables,
			pivot(sc.TableTitle, "guests", rep.cells, cell.guestsLabel, cell.schemeLabel, fleetRuntime))
	case scenario.ModeCluster:
		// The cluster stanza runs on the grid clusterN uses: one guest
		// count, the stanza's remediation policies as columns.
		var tab *Table
		rep.cells, tab = clusterPolicies(o, sc.Name, sc, []int{sc.Cluster.Guests})
		rep.Tables = append(rep.Tables, tab)
	default:
		rep.cells = singleCells(sc, o)
		renderSingle(sc, o, rep)
	}
	evalAssertions(sc, rep, rep.cells)
	return rep
}

// ---- single mode ----

// singleCells runs a single-mode scenario's grid, tiers × schemes ×
// allocations, scheme-major within each tier. A sweep (actual_mb as a
// sequence) fans its cells out on the worker pool, each on a seed
// derived from (Seed, scenario name, scheme, allocation), so a cell is
// the same in any order. A fixed file runs its cells in order on the
// invocation seed, like the hand-coded single-guest figures: fanned out,
// its cells would each hold a machine beside other documents' cells at
// once, which raises a serving daemon's peak memory and not its
// throughput. With more
// than one declared backend (validation rejects sweeps, panels and
// timelines there) each tier runs on its own derived seed so the tiers'
// streams stay independent; a single backend is o's tier (see withTier)
// and keeps the invocation seed, so a scenario equals the -swapback CLI
// form exactly. Every cell's memo entry keys on the scenario's source.
func singleCells(sc *scenario.Scenario, o Options) []cell {
	// Timeline injection stays live unless an explicit fault plan replaced
	// the scenario's own (see ForScenario).
	timelineFaults := o.Faults == sc.Faults
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
	kinds := sc.Backends
	multi := len(kinds) > 1
	if !multi {
		kinds = []swapback.Kind{o.Swapback}
	}
	sweep := sc.Fleet.Sweep != nil
	sizes := sc.Fleet.Sizes(o.Quick)
	fan := o
	if !sweep {
		fan.Parallel = 1
	}
	per := len(sc.Schemes) * len(sizes)
	cells := make([]cell, len(kinds)*per)
	fan.forEach(len(cells), func(i int) {
		k, s, size := kinds[i/per], sc.Schemes[i%per/len(sizes)].Scheme, sizes[i%len(sizes)]
		ko, seed := o, o.Seed
		ko.Swapback = k
		switch {
		case multi:
			ko.Seed = sim.DeriveSeed(o.Seed, "swapback", k.String())
			seed = ko.Seed
		case sweep:
			seed = sim.DeriveSeed(o.Seed, sc.Name, s.String(), strconv.Itoa(size))
		}
		key := cellKey{def: sc.Digest, seed: seed, tier: k, scheme: s, point: size, opts: ko.Key()}
		cells[i] = ko.shared(key, func() cell {
			return singleCell(sc, ko, s, size, seed, hostTweak, timelineFaults)
		})
	})
	return cells
}

// singleCell runs one scheme of a single-mode scenario at one
// allocation. A fixed file's panels reproduce the Fig. 9 shape: counter
// panels sample one shared Met.Diff per iteration, the runtime panel
// reads the cell's iterations. A sweep's panels read the whole cell (see
// renderSingle).
func singleCell(sc *scenario.Scenario, o Options, s scenario.Scheme, size int, seed uint64,
	hostTweak func(*hyper.MachineConfig), timelineFaults bool) cell {
	sampled := len(sc.Panels) > 0 && sc.Fleet.Sweep == nil
	panels := make([][]string, len(sc.Panels))
	var notes []string
	c := runSingle(runCfg{
		opts: o, scheme: s, seed: seed,
		guestMB:         sc.Fleet.MemoryMB,
		actualMB:        size,
		hostMB:          sc.Fleet.HostMB,
		vcpus:           sc.Fleet.VCPUs,
		warmup:          sc.Fleet.Warmup,
		balloonMarginMB: sc.Fleet.BalloonMarginMB,
		hostTweak:       hostTweak,
	}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
		var after func(int)
		if sampled {
			lastSnap := vm.M.Met.Snapshot()
			after = func(int) {
				d := vm.M.Met.Diff(lastSnap)
				lastSnap = vm.M.Met.Snapshot()
				for i, pn := range sc.Panels {
					if pn.Counter != "" {
						panels[i] = append(panels[i], perUnit(float64(d[pn.Counter]), pn))
					}
				}
			}
		}
		job := scenarioJob(o, sc.Workload, vm, after)
		if len(sc.Timeline) > 0 {
			runTimeline(sc, o, vm, job, timelineFaults, s.String(), &notes)
		}
		return job
	})
	for i, pn := range sc.Panels {
		if sampled && pn.Counter == "" {
			for _, it := range c.iters {
				panels[i] = append(panels[i], perUnit(it.Seconds(), pn))
			}
		}
	}
	c.size, c.panels, c.notes = size, panels, notes
	return c
}

// perUnit formats a panel's sample v in the panel's unit.
func perUnit(v float64, pn scenario.Panel) string { return fmt.Sprintf("%.1f", v/pn.Per) }

// renderSingle renders a single-mode scenario's runtime table, its panels
// and its cells' timeline notes, in run order. A sweep's table and each
// of its panels is one pivot: a row per allocation, a column per scheme.
func renderSingle(sc *scenario.Scenario, o Options, rep *Report) {
	for _, c := range rep.cells {
		rep.Notes = append(rep.Notes, c.notes...)
	}
	if sc.Fleet.Sweep != nil {
		if sc.TableTitle != "" {
			rep.Tables = append(rep.Tables, sweepTable(sc.TableTitle, rep.cells, runtimeSecs))
		}
		for _, pn := range sc.Panels {
			rep.Tables = append(rep.Tables, sweepTable(pn.Title, rep.cells, func(c cell) string {
				if pn.Counter != "" {
					return perUnit(float64(c.met[pn.Counter]), pn)
				}
				return c.runtimeOrKilled(func(d sim.Duration) string { return perUnit(d.Seconds(), pn) })
			}))
		}
		return
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
		for i, c := range rep.cells {
			name := c.scheme.String()
			if len(sc.Backends) > 1 {
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
	// Panels come with one tier only, so the cells are the schemes' columns.
	iters := sc.Workload.Iters(o.Quick)
	for i, pn := range sc.Panels {
		tab := &Table{Title: pn.Title, Columns: []string{"iteration"}}
		for _, ref := range sc.Schemes {
			tab.Columns = append(tab.Columns, ref.Scheme.String())
		}
		for it := 0; it < iters; it++ {
			row := []string{fmt.Sprintf("%d", it+1)}
			for _, c := range rep.cells {
				if col := c.panels[i]; it < len(col) {
					row = append(row, col[it])
				} else {
					row = append(row, "-")
				}
			}
			tab.Add(row...)
		}
		rep.Tables = append(rep.Tables, tab)
	}
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
