package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vswapsim/internal/disk"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
	"vswapsim/internal/serve"
	"vswapsim/internal/sim"
)

// Layer probes time one public call of a layer on fixed inputs sized
// like the workload, and report time and heap allocations per call. They
// run only in a traced run, after its first profiled sample.

// probeMetrics names the probes' metrics. Each probe also reports
// allocsName(name) in allocs/op.
var probeMetrics = []struct{ name, unit string }{
	{"sim.handoff_ns", "ns"},
	{"hostmm.swaparea_new_ms", "ms"},
	{"hyper.touch_resident_ns", "ns"},
	{"metrics.counter_lookup_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"serve.key_us", "us"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_put_ms", "ms"},
	{"scenario.parse_us", "us"},
}

// allocsName is "<name without its unit suffix>_allocs".
func allocsName(name string) string {
	return name[:strings.LastIndexByte(name, '_')] + "_allocs"
}

// hostSwapSlots is the host swap area every workload's machines get
// (hyper's 4 GiB default).
const hostSwapSlots = 4 << 20 / 4

// probeBudget bounds the time one probe measures.
const probeBudget = 150 * time.Millisecond

// Sinks keep the compiler from discarding probed calls.
var (
	sinkAny   interface{}
	sinkBytes []byte
	sinkStr   string
)

// probeOp runs n operations and returns the time and heap allocations of
// just those, excluding its fixture's set-up.
type probeOp func(n int) (time.Duration, uint64)

// timeLoop times n calls of body and counts their heap allocations.
func timeLoop(n int, body func(i int)) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// measure grows the batch size until a batch takes a tenth of the budget,
// then reports the median time per operation over five batches (in the
// given unit) and the mean allocations per operation.
func measure(op probeOp, unit time.Duration) (perOp, allocs float64) {
	n := 2
	for {
		d, _ := op(n)
		if d >= probeBudget/10 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	var per []float64
	var total uint64
	for i := 0; i < 5; i++ {
		d, a := op(n)
		per = append(per, float64(d)/float64(n)/float64(unit))
		total += a
	}
	sort.Float64s(per)
	return per[2], float64(total) / float64(5*n)
}

// runProbes measures every probe. reqs and docs are the workload's hit
// requests and the documents they return; names are counter names from
// its run reports.
func runProbes(w *workload, reqs []serve.JobRequest, docs [][]byte, names []string, tmp string) (map[string]float64, error) {
	cache, err := serve.NewCache(filepath.Join(tmp, "probe-cache"))
	if err != nil {
		return nil, err
	}
	fp := serve.CodeFingerprint()
	keys := make([]string, len(docs))
	for i := range docs {
		keys[i] = serve.Key(reqs[i], fp)
		if err := cache.Put(keys[i], docs[i]); err != nil {
			return nil, err
		}
	}
	var putErr error
	set := metrics.NewSet()
	for _, n := range names {
		set.Counter(n)
	}
	hist := set.Histogram("probe.latency")
	rng := rand.New(rand.NewSource(1))
	durs := make([]sim.Duration, 1024)
	for i := range durs {
		durs[i] = sim.Duration(rng.Int63n(int64(sim.Second)))
	}
	fig3 := []byte(fig3Scenario)

	ops := map[string]probeOp{
		"sim.handoff_ns": probeHandoff,
		"hostmm.swaparea_new_ms": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(int) {
				sinkAny = hostmm.NewSwapArea(disk.Region{Name: "host-swap", Blocks: hostSwapSlots})
			})
		},
		"hyper.touch_resident_ns": probeTouch(w.touchPages),
		"metrics.counter_lookup_ns": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(i int) { sinkAny = set.Counter(names[i%len(names)]) })
		},
		"metrics.observe_ns": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(i int) { hist.Observe(durs[i%len(durs)]) })
		},
		"serve.key_us": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(i int) { sinkStr = serve.Key(reqs[i%len(reqs)], fp) })
		},
		"serve.cache_get_us": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(i int) { sinkBytes, _ = cache.Get(keys[i%len(keys)]) })
		},
		"serve.cache_put_ms": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(i int) {
				if err := cache.Put(keys[i%len(keys)], docs[i%len(docs)]); err != nil && putErr == nil {
					putErr = err
				}
			})
		},
		"scenario.parse_us": func(n int) (time.Duration, uint64) {
			return timeLoop(n, func(int) { sinkAny, _ = scenario.Parse(fig3) })
		},
	}
	units := map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond}
	out := make(map[string]float64)
	for _, p := range probeMetrics {
		out[p.name], out[allocsName(p.name)] = measure(ops[p.name], units[p.unit])
	}
	if putErr != nil {
		return nil, fmt.Errorf("probe serve.cache_put_ms: %w", putErr)
	}
	return out, nil
}

// probeHandoff ping-pongs two processes through Signal: each operation is
// one switch from one process to the other via the scheduler.
func probeHandoff(n int) (time.Duration, uint64) {
	env := sim.NewEnv(1)
	ping, pong := sim.NewSignal(env), sim.NewSignal(env)
	rounds := (n + 1) / 2
	var d time.Duration
	var allocs uint64
	env.Go("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			pong.Wait(p)
			ping.Broadcast()
		}
	})
	env.Go("ping", func(p *sim.Proc) {
		d, allocs = timeLoop(rounds, func(int) {
			pong.Broadcast()
			ping.Wait(p)
		})
	})
	env.Run()
	return d * time.Duration(n) / time.Duration(2*rounds), allocs * uint64(n) / uint64(2*rounds)
}

// probeTouch touches already-resident guest pages through VM.TouchPage,
// cycling over a resident set of the given size.
func probeTouch(pages int) probeOp {
	return func(n int) (time.Duration, uint64) {
		m := hyper.NewMachine(hyper.MachineConfig{Seed: 1, HostMemPages: 2*pages + 8192, HostSwapPages: 1 << 14})
		vm := m.NewVM(hyper.VMConfig{Name: "probe", MemPages: pages, GuestAPF: true})
		var d time.Duration
		var allocs uint64
		m.Env.Go("probe", func(p *sim.Proc) {
			for g := 0; g < pages; g++ {
				vm.TouchPage(p, g, false)
			}
			d, allocs = timeLoop(n, func(i int) { vm.TouchPage(p, i%pages, false) })
			m.Shutdown()
		})
		m.Run()
		return d, allocs
	}
}
