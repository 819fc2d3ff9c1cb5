// Package workload provides page-granular generators reproducing the
// memory and I/O footprints of the paper's benchmarks: Sysbench sequential
// file reads, an allocate-and-touch microbenchmark, pbzip2, Kernbench, the
// DaCapo Eclipse workload, and the Metis MapReduce word-count.
//
// Each generator runs as guest threads and reports a Result through a Job
// handle that experiment code waits on.
package workload

import (
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// Result summarizes one workload execution.
type Result struct {
	Name   string
	VM     string
	Start  sim.Time
	End    sim.Time
	Killed bool
	// Iterations holds per-iteration runtimes for iterative workloads
	// (Fig. 9's Sysbench loop).
	Iterations []sim.Duration
}

// Runtime is the wall-clock (virtual) duration of the run.
func (r Result) Runtime() sim.Duration { return r.End.Sub(r.Start) }

// Job is a handle on an in-flight workload.
type Job struct {
	res      Result
	finished bool
	done     *sim.Signal
}

// Wait blocks p until the workload finishes and returns its result.
func (j *Job) Wait(p *sim.Proc) Result {
	for !j.finished {
		j.done.Wait(p)
	}
	return j.res
}

// Finished reports whether the workload completed.
func (j *Job) Finished() bool { return j.finished }

// launch starts body as a guest thread of vm and returns its Job. body
// receives the job to record iteration data; Start/End/Killed are filled
// automatically (Killed from the attached process, if any).
func launch(vm *hyper.VM, name string, pr *guest.Process, body func(t *guest.Thread, j *Job)) *Job {
	j := &Job{done: sim.NewSignal(vm.M.Env)}
	j.res.Name = name
	j.res.VM = vm.Cfg.Name
	vm.OS.Go(name, pr, func(t *guest.Thread) {
		j.res.Start = t.P.Now()
		body(t, j)
		t.FlushCPU()
		j.res.End = t.P.Now()
		if pr != nil && pr.Killed {
			j.res.Killed = true
		}
		j.finished = true
		j.done.Broadcast()
	})
	return j
}

// barrier coordinates multi-threaded workloads: the parent waits until n
// children signal completion.
type barrier struct {
	remaining int
	done      *sim.Signal
}

func newBarrier(env *sim.Env, n int) *barrier {
	return &barrier{remaining: n, done: sim.NewSignal(env)}
}

func (b *barrier) arrive() {
	b.remaining--
	if b.remaining == 0 {
		b.done.Broadcast()
	}
}

func (b *barrier) wait(p *sim.Proc) {
	for b.remaining > 0 {
		b.done.Wait(p)
	}
}

// Warmup runs a throwaway process that touches (then frees) all but
// reservePages of the guest's free memory. A long-running guest naturally
// reaches this state: every free frame has prior content the host may have
// reclaimed — which is what makes uncooperative swapping visible from the
// first benchmark iteration.
func Warmup(vm *hyper.VM, reservePages int) *Job {
	pr := vm.OS.NewProcess("warmup")
	return launch(vm, "warmup", pr, func(t *guest.Thread, j *Job) {
		n := vm.OS.FreePages() - reservePages
		if n <= 0 {
			return
		}
		pr.Reserve(n)
		for i := 0; i < n && !t.ProcKilled(); i++ {
			t.TouchAnon(pr, i, true)
		}
		pr.Exit()
	})
}
