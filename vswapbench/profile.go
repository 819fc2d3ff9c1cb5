package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modules lists the packages under internal/, in the order the per-layer
// table prints them. Two buckets follow them: harness for the
// benchmark's own code (its clients) when no module frame is on the
// stack, and runtime for everything else (GC, scheduler, network code
// outside any handler).
var modules = []string{
	"sim", "guest", "hyper", "hostmm", "core", "disk", "swapback", "balloon",
	"cluster", "workload", "metrics", "experiment", "scenario", "serve",
	"fault", "mem", "trace",
}

const (
	internalPrefix = "vswapsim/internal/"
	harnessPrefix  = "main."
	traceSeparator = "-----------+"
)

// moduleCPU returns CPU milliseconds per module for a CPU profile file,
// read with `go tool pprof -traces`. Each sample goes to the innermost
// vswapsim/internal/<module> frame on its stack; without one, to harness
// if a frame of this program is on the stack, otherwise to runtime. The
// buckets sum to the profile's total.
func moduleCPU(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	cpu := map[string]float64{"harness": 0, "runtime": 0}
	for _, m := range modules {
		cpu[m] = 0
	}
	// Each stack follows a separator line: its first line is the sample
	// value and the leaf function, the next lines its callers, outward.
	var value time.Duration
	var stack []string
	flush := func() {
		if stack != nil {
			cpu[bucket(stack)] += float64(value) / 1e6
		}
		stack = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			inTraces = true
			continue
		}
		f := strings.Fields(line)
		if !inTraces || len(f) == 0 {
			continue
		}
		if stack == nil {
			if value, err = time.ParseDuration(f[0]); err != nil {
				return nil, fmt.Errorf("go tool pprof -traces: sample value %q: %w", f[0], err)
			}
			f = f[1:]
		}
		if len(f) > 0 {
			stack = append(stack, f[0])
		}
	}
	flush()
	return cpu, sc.Err()
}

// bucket walks a stack of function names from the leaf outward and names
// the bucket its sample belongs to.
func bucket(stack []string) string {
	harness := false
	for _, name := range stack {
		if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(name, harnessPrefix) {
			harness = true
		}
	}
	if harness {
		return "harness"
	}
	return "runtime"
}
