package experiment

import (
	"fmt"
	"strconv"

	"vswapsim/internal/balloon"
	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// runDynamic executes the §5.2 dynamic scenario: n guests sized by f
// (f.MemoryMB with f.VCPUs VCPUs and an f.DiskMB disk each) on an
// f.HostMB host run w, started f.StaggerSec seconds apart. All MB
// figures are pre-scale. Balloon schemes are managed by the MOM-like
// controller. The cell measures the mean guest runtime and how many
// guests were OOM-killed. seed, when nonzero, overrides o.Seed so fan-out
// cells get independent derived streams.
func runDynamic(o Options, scheme scenario.Scheme, n int, seed uint64, f scenario.Fleet, w scenario.Workload) cell {
	o = o.normalized()
	if seed == 0 {
		seed = o.Seed
	}
	label := fmt.Sprintf("dynamic/%s/guests%d/seed%016x", scheme, n, seed)

	out := cell{tier: o.Swapback, scheme: scheme, guests: n}
	var total sim.Duration
	killed := 0
	out.runs, out.failure = o.runCell(label, seed, func(mc hyper.MachineConfig) ([]cellHost, func() error) {
		diskBlocks := o.guestDiskBlocks(f.DiskMB, f.MemoryMB)
		mc.HostMemPages = o.pages(f.HostMB)
		m := hyper.NewMachine(mc)
		vms := make([]*hyper.VM, n)
		for i := range vms {
			vms[i] = m.NewVM(hyper.VMConfig{
				Name:       fmt.Sprintf("vm%d", i),
				MemPages:   o.pages(f.MemoryMB),
				VCPUs:      f.VCPUs,
				DiskBlocks: diskBlocks,
				Mapper:     scheme.Mapper(),
				Preventer:  scheme.Preventer(),
				GuestAPF:   true,
			})
		}
		var mgr *balloon.Manager
		if scheme.Balloon() {
			mgr = balloon.New(m)
		}

		return []cellHost{{m: m}}, func() error {
			m.Env.Go("driver", func(p *sim.Proc) {
				for _, vm := range vms {
					vm.Boot(p)
				}
				if mgr != nil {
					mgr.Start()
				}
				jobs := make([]*workload.Job, n)
				for i, vm := range vms {
					jobs[i] = scenarioJob(o, w, vm, nil)
					if i < n-1 {
						p.Sleep(sim.Duration(f.StaggerSec) * sim.Second)
					}
				}
				for _, j := range jobs {
					r := j.Wait(p)
					total += r.Runtime()
					if r.Killed {
						killed++
					}
				}
				if mgr != nil {
					mgr.Stop()
				}
				m.Shutdown()
			})
			m.Run()
			return nil
		}
	})
	if !out.failed() {
		out.runtime, out.killed = total/sim.Duration(n), killed
	}
	return out
}

// fleetRuntime renders a fleet cell the way Figs. 4 and 14 print them.
func fleetRuntime(c cell) string {
	s := secs(c.runtime)
	if c.killed > 0 {
		s += fmt.Sprintf(" (%d killed)", c.killed)
	}
	return s
}

// dynamicGrid runs sc's guest counts × schemes grid of runDynamic calls
// on the worker pool, returning its cells row-major (counts outer). Each
// cell's seed derives from (sc.Name, scheme, guest count), and its memo
// entry keys on the scenario's source, so every document of one
// invocation that reads a cell of the file simulates it once.
func dynamicGrid(o Options, sc *scenario.Scenario, counts []int) []cell {
	o = o.normalized()
	out := make([]cell, len(counts)*len(sc.Schemes))
	opts := o.Key()
	o.forEach(len(out), func(i int) {
		n, s := counts[i/len(sc.Schemes)], sc.Schemes[i%len(sc.Schemes)].Scheme
		seed := sim.DeriveSeed(o.Seed, sc.Name, s.String(), strconv.Itoa(n))
		out[i] = o.shared(cellKey{def: sc.Digest, seed: seed, scheme: s, point: n, opts: opts}, func() cell {
			return runDynamic(o, s, n, seed, sc.Fleet, sc.Workload)
		})
	})
	return out
}

// Fig4 is the paper's preview of Fig. 14 at ten guests: it renders the
// 10-guest row of fig14.yaml, which -quick runs too, so fig4 and fig14
// read the same cells.
func Fig4(o Options) *Report {
	sc := fig14Scenario()
	rep := &Report{
		ID:        "fig4",
		Title:     "Average completion of ten phased MapReduce guests (Fig. 4)",
		PaperNote: "baseline 153s, balloon+base 167s, vswapper 88s, balloon+vswapper 97s",
		cells:     dynamicGrid(scenarioOpts(sc, o), sc, []int{10}),
	}
	paper := map[scenario.Scheme]string{
		scenario.Baseline: "153", scenario.BalloonBase: "167", scenario.VSwapper: "88", scenario.BalloonVSwapper: "97",
	}
	tab := &Table{Title: "avg runtime [sec]", Columns: []string{"config", "runtime", "paper"}}
	for _, c := range rep.cells {
		tab.Add(c.scheme.String(), c.show("%s", fleetRuntime(c)), paper[c.scheme])
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
