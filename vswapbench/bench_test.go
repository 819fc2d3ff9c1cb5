package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"vswapsim/internal/disk"
	"vswapsim/internal/hostmm"
)

// benchmarkFile is the part of ../BENCHMARK.json these tests read.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(ms []metric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.name] = m.unit
	}
	return out
}

func TestEndToEndMatchesBenchmarkFile(t *testing.T) {
	run := &sampleRun{res: &sampleResult{WallS: 1, RefS: 0.01}}
	got := names(endToEnd([]*sampleRun{run}))
	b := readBenchmark(t)
	if len(got) != len(b.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got[m.Name] != m.Unit {
			t.Errorf("%s: benchmark unit %q, BENCHMARK.json unit %q", m.Name, got[m.Name], m.Unit)
		}
	}
}

func TestPerLayerMatchesBenchmarkFileAndPredictions(t *testing.T) {
	tr := &sampleTraced{CPUMS: map[string]float64{"sim": 1}, Probes: map[string]float64{}}
	run := &sampleRun{res: &sampleResult{WallS: 1, Trace: tr}}
	got := names(perLayer([]*sampleRun{run}, []*sampleRun{run}))
	b := readBenchmark(t)
	if len(got) != len(b.PerLayer) {
		t.Errorf("benchmark prints %d per-layer metrics, BENCHMARK.json lists %d", len(got), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if got[m.Name] != m.Unit {
			t.Errorf("%s: benchmark unit %q, BENCHMARK.json unit %q", m.Name, got[m.Name], m.Unit)
		}
	}
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Metrics map[string]struct{ Moves, On, FlatOn string } `json:"metrics"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	for name := range got {
		if _, ok := p.Metrics[name]; !ok {
			t.Errorf("predictions.json has no entry for %s", name)
		}
	}
	for name := range p.Metrics {
		if _, ok := got[name]; !ok {
			t.Errorf("predictions.json names %s, which the benchmark does not print", name)
		}
	}
}

func TestModulesAreTheInternalPackages(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	got := append([]string(nil), modules...)
	sort.Strings(got)
	sort.Strings(dirs)
	if len(got) != len(dirs) {
		t.Fatalf("modules = %v, internal/ holds %v", got, dirs)
	}
	for i := range got {
		if got[i] != dirs[i] {
			t.Fatalf("modules = %v, internal/ holds %v", got, dirs)
		}
	}
}

func TestModuleCPUAttributesToInnermostModule(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector frames hide the module on the stack")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sinkAny = hostmm.NewSwapArea(disk.Region{Name: "swap", Blocks: 1 << 18})
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cpu, err := moduleCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu) != len(modules)+2 {
		t.Errorf("got %d buckets, want one per module plus harness and runtime", len(cpu))
	}
	var total float64
	for _, v := range cpu {
		total += v
	}
	if total == 0 {
		t.Skip("no CPU samples collected")
	}
	if cpu["hostmm"] < total/4 {
		t.Errorf("hostmm got %.0f of %.0f ms; NewSwapArea should dominate", cpu["hostmm"], total)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}
