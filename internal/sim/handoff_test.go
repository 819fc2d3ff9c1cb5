package sim

import (
	"errors"
	"testing"
)

// TestCallbackPanicOnProcessGoroutine: a process that blocks runs the
// event loop on its own goroutine. A callback that panics there reaches
// RunUntil's caller with its value, and the panic does not unwind the
// blocked process: its deferred code sees no panic, and runs only when the
// failed run ends the process.
func TestCallbackPanicOnProcessGoroutine(t *testing.T) {
	env := NewEnv(1)
	var sawPanic, exited bool
	env.Go("holder", func(p *Proc) {
		defer func() {
			sawPanic = recover() != nil
			exited = true
		}()
		env.Schedule(Millisecond, func() { panic("callback boom") })
		p.Sleep(2 * Millisecond) // the callback is due first: slow path
		t.Error("holder resumed after the callback panicked")
	})
	var got interface{}
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	if got != "callback boom" {
		t.Fatalf("RunUntil panicked with %#v, want the callback's value", got)
	}
	if sawPanic {
		t.Error("the callback's panic unwound the process that ran it")
	}
	if !exited {
		t.Error("the failed run left the process goroutine parked")
	}
}

// TestDeadlineStopLeavesProcessesParked: a run that stops at its deadline
// on a process goroutine hands back to the caller, and the next RunUntil
// resumes the parked processes where they were.
func TestDeadlineStopLeavesProcessesParked(t *testing.T) {
	env := NewEnv(1)
	var wakes []Time
	for i := 1; i <= 2; i++ {
		step := Duration(i) * Second
		env.Go("ticker", func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(step)
				wakes = append(wakes, p.Now())
			}
		})
	}
	if end := env.RunUntil(Time(3 * Second)); end != Time(3*Second) || len(wakes) != 4 {
		t.Fatalf("first leg ended at %v after %d wakeups, want 3s after 4", end, len(wakes))
	}
	if end := env.Run(); end != Time(6*Second) || len(wakes) != 6 {
		t.Fatalf("second leg ended at %v after %d wakeups, want 6s after 6", end, len(wakes))
	}
}

// TestBudgetBreachOnProcessGoroutine: two processes sleeping in lockstep
// never take the Sleep fast path, so every event is dequeued by a process
// goroutine. The MaxEvents breach still reaches the caller as a typed
// *BudgetError at exactly MaxEvents+1.
func TestBudgetBreachOnProcessGoroutine(t *testing.T) {
	env := NewEnv(1)
	env.SetBudget(Budget{MaxEvents: 100})
	for i := 0; i < 2; i++ {
		env.Go("spinner", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
	}
	var err error
	func() {
		defer func() { err, _ = recover().(error) }()
		env.Run()
	}()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("run ended with %v, want a *BudgetError", err)
	}
	if be.Kind != BreachMaxEvents || be.Events != 101 || env.EventCount() != 101 {
		t.Fatalf("breach %s at event %d (EventCount %d), want %s at 101",
			be.Kind, be.Events, env.EventCount(), BreachMaxEvents)
	}
}

// TestAfterEventOncePerEvent: over a run that mixes both Sleep paths,
// Signal waits, both WaitTimeout outcomes, a contended Resource and
// callbacks, the after-event hook runs exactly once per dequeued event.
func TestAfterEventOncePerEvent(t *testing.T) {
	env := NewEnv(1)
	hooks := uint64(0)
	env.SetAfterEvent(func() { hooks++ })
	sig := NewSignal(env)
	res := NewResource(env, 1)
	timeouts, signaled := 0, 0
	for i := 0; i < 3; i++ {
		env.Go("worker", func(p *Proc) {
			for j := 0; j < 20; j++ {
				res.Acquire(p)
				p.Sleep(Duration(env.Rand().Intn(50)) * Microsecond)
				res.Release()
				if sig.WaitTimeout(p, Duration(env.Rand().Intn(100)+1)*Microsecond) {
					signaled++
				} else {
					timeouts++
				}
			}
		})
	}
	env.Go("waiter", func(p *Proc) {
		for j := 0; j < 5; j++ {
			sig.Wait(p)
		}
	})
	env.Go("broadcaster", func(p *Proc) {
		for j := 0; j < 40; j++ {
			env.Schedule(Duration(j)*Microsecond, func() {})
			p.Sleep(37 * Microsecond)
			sig.Broadcast()
		}
	})
	env.Run()
	if timeouts == 0 || signaled == 0 {
		t.Fatalf("mix lacks a WaitTimeout outcome: %d timeouts, %d signaled", timeouts, signaled)
	}
	if hooks != env.EventCount() {
		t.Fatalf("after-event hook ran %d times over %d events", hooks, env.EventCount())
	}
}

// BenchmarkHandoff ping-pongs two processes through Signal. One op is a
// round trip: two wakeups, each handing control to the other process.
func BenchmarkHandoff(b *testing.B) {
	env := NewEnv(1)
	ping, pong := NewSignal(env), NewSignal(env)
	env.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Wait(p)
			ping.Broadcast()
		}
	})
	env.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Broadcast()
			ping.Wait(p)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkSleep measures the Sleep fast path: a lone process whose wakeup
// is always the next event.
func BenchmarkSleep(b *testing.B) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
}
