package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// event is a single scheduled occurrence: a callback (fn), the wakeup of a
// blocked process (proc), or a WaitTimeout timer (wait). Splitting the
// cases lets the loop hand control to a process — by far the common case —
// without allocating a closure per Sleep/Broadcast/Release/WaitTimeout.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	fn   func()
	proc *Proc
	wait *timedWait
}

// eventLess orders the heap by (time, insertion sequence).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Env is a discrete-event simulation environment. It owns the virtual
// clock, the pending-event queue and the set of live processes. An Env is
// not safe for concurrent use: exactly one process (or event callback) runs
// at a time, which is what makes runs deterministic.
//
// There is no scheduler goroutine. RunUntil's caller runs the event loop
// until the first process wakeup; from then on the process that blocks or
// ends runs it and hands control straight to the next process it wakes.
type Env struct {
	now    Time
	events []*event // binary min-heap ordered by eventLess
	free   []*event // recycled event objects
	seq    uint64
	rng    *RNG

	// first/last bound the live processes in creation order; liveProcs
	// counts them.
	first, last *Proc
	liveProcs   int

	// done wakes RunUntil's caller when the run stops or fails on a
	// process goroutine, and acknowledges each process exit during
	// teardown.
	done chan struct{}
	// fail is a panic a process goroutine hands back to RunUntil's caller.
	fail interface{}
	// dying is set while teardown makes the processes of a failed run exit.
	dying bool

	// running/deadline mirror the active RunUntil call so that Sleep can
	// advance the clock inline (see Proc.Sleep) without overshooting the
	// caller's deadline.
	running  bool
	deadline Time

	// afterEvent, when set, runs after every completed event. The
	// invariant-audit harness hooks here in test mode; it must not mutate
	// simulation state.
	afterEvent func()

	// budget is the progress watchdog installed by SetBudget; noteEvent
	// enforces it on every dequeued event (see watchdog.go).
	budget       Budget
	eventCount   uint64
	stall        uint64
	wallDeadline time.Time
}

// SetAfterEvent installs (or, with nil, removes) the post-event hook.
func (e *Env) SetAfterEvent(fn func()) { e.afterEvent = fn }

// NewEnv returns an environment with the clock at zero and the PRNG seeded
// with seed. The same seed always produces the same run.
func NewEnv(seed uint64) *Env {
	return &Env{rng: NewRNG(seed), done: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic PRNG.
func (e *Env) Rand() *RNG { return e.rng }

// push stamps an event for time at with the next sequence number, taking
// the object from the pool (or allocating one), and inserts it into the
// heap. The caller sets exactly one of its fn, proc and wait.
func (e *Env) push(at Time) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
	return ev
}

// recycle returns a dequeued event to the pool. Callers must have copied
// out any field they still need.
func (e *Env) recycle(ev *event) {
	ev.fn, ev.proc, ev.wait = nil, nil, nil
	e.free = append(e.free, ev)
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (e *Env) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			least = r
		}
		if !eventLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// Schedule arranges for fn to run after delay d. Callbacks run inside the
// event loop, so they must not block; use Go for blocking logic.
func (e *Env) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(e.now.Add(d)).fn = fn
}

// scheduleProc arranges for p to be woken after delay d, without the
// closure a Schedule would cost.
func (e *Env) scheduleProc(d Duration, p *Proc) {
	e.push(e.now.Add(d)).proc = p
}

// Run drives the simulation until no events remain. It returns the final
// virtual time. If processes remain blocked on signals that can never fire,
// Run panics, as that is always a bug in the model.
func (e *Env) Run() Time {
	return e.RunUntil(Time(1<<62 - 1))
}

// RunUntil drives the simulation until the event queue is empty or the next
// event would fire after the deadline. Events exactly at the deadline run.
//
// Every panic of the run — a process's, a callback's, the after-event
// hook's, or a watchdog's *BudgetError — leaves RunUntil on the caller's
// goroutine. Before it does, every live process exits (see teardown), so
// the Env must not be run again.
func (e *Env) RunUntil(deadline Time) Time {
	e.running = true
	e.deadline = deadline
	ok := false
	defer func() {
		e.running = false
		if !ok {
			e.teardown()
		}
	}()
	if p := e.loop(); p != nil {
		p.resume <- struct{}{}
		<-e.done
	}
	if r := e.fail; r != nil {
		e.fail = nil
		panic(r)
	}
	if len(e.events) == 0 && e.liveProcs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at %v", e.liveProcs, e.now))
	}
	ok = true
	return e.now
}

// loop runs events in order until one wakes a process, and returns that
// process. It returns nil when the run stops: the queue is empty, or the
// next event falls after the deadline (the clock then moves to it).
func (e *Env) loop() *Proc {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.at > e.deadline {
			e.now = e.deadline
			return nil
		}
		e.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		advanced := ev.at > e.now
		e.now = ev.at
		fn, p, w := ev.fn, ev.proc, ev.wait
		e.recycle(ev)
		e.noteEvent(advanced)
		switch {
		case p != nil:
			return p
		case w != nil:
			if w.expire() {
				return w.proc
			}
		default:
			fn()
		}
		if e.afterEvent != nil {
			e.afterEvent()
		}
	}
	return nil
}

// handoff runs on the goroutine of a process that has just blocked or
// ended: it completes the process's event (the after-event hook), then
// runs the loop to the next process wakeup. A panic raised there is
// recovered, so that it does not unwind the process's own frames, and
// left in fail for RunUntil's caller; handoff then returns nil.
func (e *Env) handoff() (q *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.fail = r
			q = nil
		}
	}()
	if e.afterEvent != nil {
		e.afterEvent()
	}
	return e.loop()
}

// wake hands control to q, or back to RunUntil's caller when q is nil.
func (e *Env) wake(q *Proc) {
	if q != nil {
		q.resume <- struct{}{}
	} else {
		e.done <- struct{}{}
	}
}

// teardown ends every live process after a failed run, in creation order:
// each wakes, exits through runtime.Goexit without running another event,
// and acknowledges on done. Without it the parked goroutines, and all the
// model state their stacks reach, would never be freed.
func (e *Env) teardown() {
	e.dying = true
	for p := e.first; p != nil; p = e.first {
		p.resume <- struct{}{}
		<-e.done
	}
	e.dying = false
}

// Proc is a simulated process: a goroutine that runs exclusively between
// blocking points. All blocking methods must be called from the process's
// own goroutine. A process that blocks runs the event loop itself and
// parks only when the next wakeup belongs to another process.
type Proc struct {
	env        *Env
	name       string
	resume     chan struct{} // the loop, on whatever goroutine runs it -> proc
	prev, next *Proc         // Env's live-process list
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go starts fn as a new simulated process at the current virtual time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{}), prev: e.last}
	if e.last != nil {
		e.last.next = p
	} else {
		e.first = p
	}
	e.last = p
	e.liveProcs++
	go func() {
		defer func() {
			// A panic in a process must surface on RunUntil's caller
			// instead of stranding the run. Watchdog breaches stay typed
			// (*BudgetError) so the experiment layer classifies them the
			// same whether they fired in the loop or — via the inline
			// Sleep fast path — in process code.
			r := recover()
			if r != nil && !e.dying {
				if be, ok := r.(*BudgetError); ok {
					e.fail = be
				} else {
					e.fail = fmt.Sprintf("%v\n\nprocess goroutine stack:\n%s", r, debug.Stack())
				}
			}
			e.unlink(p)
			if r != nil || e.dying {
				e.done <- struct{}{}
				return
			}
			e.wake(e.handoff())
		}()
		<-p.resume // wait for first dispatch
		if !e.dying {
			fn(p)
		}
	}()
	e.scheduleProc(0, p)
	return p
}

// unlink removes an ended process from the live list.
func (e *Env) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.first = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.last = p.prev
	}
	p.prev, p.next = nil, nil
	e.liveProcs--
}

// block suspends the calling process until its next wakeup event. It runs
// the loop itself: when that wakeup is the next event, the process keeps
// running without a goroutine switch.
func (p *Proc) block() {
	e := p.env
	if e.dying {
		runtime.Goexit() // a deferred call blocked during teardown
	}
	q := e.handoff()
	if q == p {
		return
	}
	e.wake(q)
	<-p.resume
	if e.dying {
		runtime.Goexit()
	}
}

// Sleep suspends the process for virtual duration d.
//
// Fast path: when the wakeup would be the very next event processed — no
// pending event fires at or before it — queuing it is pure overhead (a
// heap push and pop), so the clock advances inline and the process keeps
// running. The observable sequence is bit-identical to the queued path:
// the skipped wakeup is still counted and budget-checked by noteEvent,
// the current event's afterEvent hook still runs first, and no other event
// could have run in between (nothing is queued in the window, and nothing
// can be scheduled into it because no other code runs).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.env
	wake := e.now.Add(d)
	if e.running && wake <= e.deadline &&
		(len(e.events) == 0 || wake < e.events[0].at) {
		if e.afterEvent != nil {
			e.afterEvent()
		}
		advanced := wake > e.now
		e.now = wake
		e.noteEvent(advanced)
		return
	}
	e.scheduleProc(d, p)
	p.block()
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Sleep(t.Sub(p.env.now))
}

// Signal is a broadcast condition in virtual time. Processes wait on it;
// any code may Broadcast to wake all current waiters at the present time.
// The zero value is not usable; create signals with NewSignal.
type Signal struct {
	env     *Env
	waiters []*Proc
	timed   []*timedWait
}

// timedWait tracks one WaitTimeout waiter: whoever resolves it first —
// Broadcast or the timer — sets done.
type timedWait struct {
	sig     *Signal
	proc    *Proc
	done    bool
	expired bool
}

// expire resolves w by its timer and reports whether its process should
// wake; it reports false when a Broadcast got there first.
func (w *timedWait) expire() bool {
	if w.done {
		return false
	}
	w.done = true
	w.expired = true
	s := w.sig
	for i, x := range s.timed {
		if x == w {
			s.timed = append(s.timed[:i], s.timed[i+1:]...)
			break
		}
	}
	return true
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait suspends p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// WaitTimeout suspends p until the next Broadcast or until d elapses,
// whichever comes first, and reports whether the signal fired. The timer
// event always runs — as a no-op when the waiter was already woken — so
// the run's final virtual time does not depend on which path won.
func (s *Signal) WaitTimeout(p *Proc, d Duration) (signaled bool) {
	if d < 0 {
		panic("sim: negative delay")
	}
	w := &timedWait{sig: s, proc: p}
	s.timed = append(s.timed, w)
	s.env.push(s.env.now.Add(d)).wait = w
	p.block()
	return !w.expired
}

// Broadcast wakes every process currently waiting on the signal. Waiters
// resume in the order they began waiting, at the current virtual time;
// plain waiters first, then timed waiters.
func (s *Signal) Broadcast() {
	waiters := s.waiters
	s.waiters = s.waiters[:0]
	for _, w := range waiters {
		s.env.scheduleProc(0, w)
	}
	timed := s.timed
	s.timed = s.timed[:0]
	for _, w := range timed {
		w.done = true
		s.env.scheduleProc(0, w.proc)
	}
}

// Pending reports how many processes are waiting on the signal.
func (s *Signal) Pending() int { return len(s.waiters) + len(s.timed) }
