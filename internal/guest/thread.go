package guest

import "vswapsim/internal/sim"

// Thread is an execution context inside the guest: a workload thread or a
// kernel daemon. CPU time accumulates as debt and is paid on the VCPU in
// slices, so per-page bookkeeping does not flood the event queue; I/O
// blocks without holding the VCPU (KVM's asynchronous page faults let
// Linux guests schedule around host-side waits, paper §5.1).
type Thread struct {
	OS   *OS
	P    *sim.Proc
	Proc *Process // associated process, if any (for OOM kill checks)

	cpuDebt sim.Duration
}

// cpuSlice is how much CPU debt accumulates before the thread actually
// occupies the VCPU. Coarser slices keep the event count manageable for
// multi-guest experiments; disk latencies (milliseconds) dominate anyway.
const cpuSlice = sim.Millisecond

// Go starts fn as a guest thread attached to process pr (pr may be nil for
// kernel threads).
func (os *OS) Go(name string, pr *Process, fn func(t *Thread)) {
	os.Env.Go(name, func(p *sim.Proc) {
		t := &Thread{OS: os, P: p, Proc: pr}
		fn(t)
		t.FlushCPU()
	})
}

// Compute charges d of CPU time to the thread.
func (t *Thread) Compute(d sim.Duration) {
	t.cpuDebt += d
	if t.cpuDebt >= cpuSlice {
		t.FlushCPU()
	}
}

// FlushCPU pays the accumulated CPU debt on the VCPU. Call it before
// measuring completion times.
func (t *Thread) FlushCPU() {
	if t.cpuDebt <= 0 {
		return
	}
	d := t.cpuDebt
	t.cpuDebt = 0
	t.OS.c.guestRun.Add(int64(d))
	t.OS.VCPU.Acquire(t.P)
	t.P.Sleep(d)
	t.OS.VCPU.Release()
}

// ProcKilled reports whether the thread's process was OOM-killed; workload
// loops should abort when it turns true.
func (t *Thread) ProcKilled() bool {
	return t.Proc != nil && t.Proc.Killed
}
