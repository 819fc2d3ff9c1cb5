package experiment

import (
	"bytes"
	"testing"

	"vswapsim/internal/scenario"
)

// TestFleetParallelEquivalence proves the cloud-density entries are safe
// under the parallel executor: both the hand-coded fleetN registry entry
// and its YAML twin must produce byte-identical JSON reports serially and
// at -parallel 4. (TestScenarioEquivalence covers the paper figures; the
// fleet entries are not mirrors of each other — their seed ids differ — so
// each gets its own serial-vs-parallel check.)
func TestFleetParallelEquivalence(t *testing.T) {
	goExp, err := ByID("fleetN")
	if err != nil {
		t.Fatal(err)
	}
	yamlExp := FromScenario(loadScenario(t, "fleet"))
	for _, e := range []Experiment{goExp, yamlExp} {
		t.Run(e.ID, func(t *testing.T) {
			o := goldenOpts()
			want := scenarioJSON(t, e, o)
			o.Parallel = 4
			got := scenarioJSON(t, e, o)
			if !bytes.Equal(got, want) {
				t.Errorf("parallel run diverges from serial for %s (%d vs %d bytes)",
					e.ID, len(got), len(want))
			}
		})
	}
}

// TestFleetScenarioMirrorsRegistry pins scenarios/fleet.yaml to the
// hand-coded fleetN configuration: same guest sizing, host, schemes, and
// workload. The two run different seed streams (the scenario name keys the
// derivation and must match its filename), so their outputs legitimately
// differ; this structural check is what keeps them the same experiment.
func TestFleetScenarioMirrorsRegistry(t *testing.T) {
	sc := loadScenario(t, "fleet")
	dc := fleetDynCfg()
	if sc.Mode != scenario.ModeDynamic {
		t.Fatalf("fleet scenario mode %q, want dynamic", sc.Mode)
	}
	checks := []struct {
		name      string
		got, want int
	}{
		{"memory_mb", sc.Fleet.MemoryMB, dc.memMB},
		{"host_mb", sc.Fleet.HostMB, dc.hostMB},
		{"vcpus", sc.Fleet.VCPUs, dc.vcpus},
		{"stagger_sec", sc.Fleet.StaggerSec, dc.staggerSec},
		{"disk_mb", sc.Fleet.DiskMB, dc.diskMB},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("fleet.yaml %s = %d, registry uses %d", c.name, c.got, c.want)
		}
	}
	if len(sc.Schemes) != len(fleetSchemes) {
		t.Fatalf("fleet.yaml has %d schemes, registry %d", len(sc.Schemes), len(fleetSchemes))
	}
	for i, ref := range sc.Schemes {
		if ref.Name != fleetSchemes[i].String() {
			t.Errorf("scheme[%d] = %q, registry %q", i, ref.Name, fleetSchemes[i])
		}
	}
	if sc.Workload.Kind != scenario.KindMetis ||
		sc.Workload.InputMB != 48 || sc.Workload.TableMB != 64 {
		t.Errorf("fleet.yaml workload %s input=%d table=%d, registry uses metis 48/64",
			sc.Workload.Kind, sc.Workload.InputMB, sc.Workload.TableMB)
	}
	// The entry's reason to exist: cloud-node density, not the paper's ten.
	for _, counts := range [][]int{sc.Fleet.Counts, sc.Fleet.QuickCounts} {
		for _, n := range counts {
			if n < 100 {
				t.Errorf("fleet count %d below the 100-guest density floor", n)
			}
		}
	}
}

// BenchmarkRegistry times each experiment end to end at the golden
// configuration (quick, 1/8 scale, serial), resetting the memoized
// pbzip2 sweep each iteration so fig5 and fig11 pay full cost.
// BenchmarkRegistry/fleetN is the large-fleet stress benchmark:
//
//	go test ./internal/experiment -run xxx -bench Registry/fleetN
func BenchmarkRegistry(b *testing.B) {
	for _, e := range Registry {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resetSweepCaches()
				e.Run(goldenOpts())
			}
		})
	}
}
