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
// controller. It returns the mean guest runtime, how many guests were
// OOM-killed, and the failure record when the cell was killed or
// panicked (runtime and kills are then zero). seed, when nonzero,
// overrides o.Seed so fan-out cells get independent derived streams.
func runDynamic(o Options, scheme Scheme, n int, seed uint64, f scenario.Fleet, w scenario.Workload) (sim.Duration, int, *FailureRecord) {
	o = o.normalized()
	release := o.acquire()
	defer release()
	if seed == 0 {
		seed = o.Seed
	}
	label := fmt.Sprintf("dynamic/%s/guests%d/seed%016x", scheme, n, seed)

	var total sim.Duration
	killed := 0
	st := &cellState{}
	failed := o.runShielded(label, seed, st, func() {
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
		st.aud, checkAudit = o.attachAuditor(m, seed)
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
	})
	if failed != nil {
		return 0, 0, failed
	}
	if o.runlog != nil {
		o.runlog.add(label, st.m.Report())
	}
	return total / sim.Duration(n), killed, nil
}

// dynOut is one completed dynamic cell in structured form (scenario
// assertions evaluate against these before rendering).
type dynOut struct {
	mean   sim.Duration
	killed int
	failed bool
}

// renderDynCell formats a dynamic cell the way Fig. 4/14 print them.
func renderDynCell(c dynOut) string {
	if c.failed {
		return "failed"
	}
	cell := secs(c.mean)
	if c.killed > 0 {
		cell += fmt.Sprintf(" (%d killed)", c.killed)
	}
	return cell
}

// dynamicGrid runs the counts × schemes grid of runDynamic calls on the
// worker pool, returning structured cells in row-major (counts-outer)
// order. Each cell's seed derives from (id, scheme, guest count).
func dynamicGrid(o Options, id string, counts []int, schemes []Scheme, f scenario.Fleet, w scenario.Workload) []dynOut {
	o = o.normalized()
	out := make([]dynOut, len(counts)*len(schemes))
	o.forEach(len(out), func(i int) {
		n, s := counts[i/len(schemes)], schemes[i%len(schemes)]
		seed := sim.DeriveSeed(o.Seed, id, s.String(), strconv.Itoa(n))
		mean, killed, failed := runDynamic(o, s, n, seed, f, w)
		out[i] = dynOut{mean: mean, killed: killed, failed: failed != nil}
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
	grid := dynamicGrid(o, "fig4", []int{n}, schemes, sc.Fleet, sc.Workload)
	for i, s := range schemes {
		tab.Add(s.String(), renderDynCell(grid[i]), paper[s])
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}
