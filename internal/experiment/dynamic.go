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
func runDynamic(o Options, scheme Scheme, n int, seed uint64, f scenario.Fleet, w scenario.Workload) cell {
	o = o.normalized()
	release := o.acquire()
	defer release()
	if seed == 0 {
		seed = o.Seed
	}
	label := fmt.Sprintf("dynamic/%s/guests%d/seed%016x", scheme, n, seed)

	out := cell{tier: o.Swapback, scheme: scheme, guests: n}
	var total sim.Duration
	killed := 0
	st := &cellState{}
	out.failed = o.runShielded(label, seed, st, func() {
		m := hyper.NewMachine(hyper.MachineConfig{
			Seed:         seed,
			HostMemPages: o.pages(f.HostMB),
			Faults:       o.Faults,
			Swapback:     o.Swapback,
			SwapPolicy:   o.SwapPolicy,
			Budget:       o.cellBudget(),
		})
		st.m = m
		var checkAudit func()
		st.auditTail, checkAudit = o.attachAuditor(m, seed)
		if o.TraceRing > 0 {
			m.EnableTrace(o.TraceRing)
		}
		vms := make([]*hyper.VM, n)
		for i := range vms {
			vms[i] = m.NewVM(hyper.VMConfig{
				Name:       fmt.Sprintf("vm%d", i),
				MemPages:   o.pages(f.MemoryMB),
				VCPUs:      f.VCPUs,
				DiskBlocks: int64(o.mb(f.DiskMB)) << 20 / 4096,
				Mapper:     scheme.mapper(),
				Preventer:  scheme.preventer(),
				GuestAPF:   true,
			})
		}
		var mgr *balloon.Manager
		if scheme.balloon() {
			mgr = balloon.New(m, balloon.Config{})
		}

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
		checkAudit()
	}) != nil
	if out.failed {
		return out
	}
	if o.runlog != nil {
		o.runlog.add(RunRecord{Label: label, Report: st.m.Report()})
	}
	out.runtime, out.killed = total/sim.Duration(n), killed
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

// dynamicGrid runs the counts × schemes grid of runDynamic calls on the
// worker pool, returning its cells row-major (counts outer). Each cell's
// seed derives from (id, scheme, guest count).
func dynamicGrid(o Options, id string, counts []int, schemes []Scheme, f scenario.Fleet, w scenario.Workload) []cell {
	o = o.normalized()
	out := make([]cell, len(counts)*len(schemes))
	o.forEach(len(out), func(i int) {
		n, s := counts[i/len(schemes)], schemes[i%len(schemes)]
		out[i] = runDynamic(o, s, n, sim.DeriveSeed(o.Seed, id, s.String(), strconv.Itoa(n)), f, w)
	})
	return out
}

// Fig4 is the paper's motivational preview of Fig. 14 at ten guests: the
// same §5.2 guests, host and workload, so it sizes them from fig14.yaml.
func Fig4(o Options) *Report {
	o = o.normalized()
	n := 10
	if o.Quick {
		n = 4
	}
	rep := &Report{
		ID:        "fig4",
		Title:     "Average completion of ten phased MapReduce guests (Fig. 4)",
		PaperNote: "baseline 153s, balloon+base 167s, vswapper 88s, balloon+vswapper 97s",
	}
	paper := map[Scheme]string{
		Baseline: "153", BalloonBase: "167", VSwapper: "88", BalloonVSwapper: "97",
	}
	tab := &Table{Title: "avg runtime [sec]", Columns: []string{"config", "runtime", "paper"}}
	schemes := []Scheme{Baseline, BalloonBase, VSwapper, BalloonVSwapper}
	sc := fig14Scenario()
	for _, c := range dynamicGrid(o, "fig4", []int{n}, schemes, sc.Fleet, sc.Workload) {
		tab.Add(c.scheme.String(), c.show("%s", fleetRuntime(c)), paper[c.scheme])
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
