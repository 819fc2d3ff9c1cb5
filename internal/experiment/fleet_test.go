package experiment

import (
	"bytes"
	"testing"
)

// TestFleetParallelEquivalence proves the cloud-density entries are safe
// under the parallel executor: the fleetN registry entry and `vswapsim run
// scenarios/fleet.yaml` must each produce byte-identical JSON reports
// serially and at -parallel 4. Both run fleet.yaml, but their ids key
// different seed streams, so each gets its own check.
func TestFleetParallelEquivalence(t *testing.T) {
	idExp, err := ByID("fleetN")
	if err != nil {
		t.Fatal(err)
	}
	yamlExp := FromScenario(embeddedScenario("fleet")())
	for _, e := range []Experiment{idExp, yamlExp} {
		t.Run(e.ID, func(t *testing.T) {
			o := goldenOpts()
			_, want := scenarioJSON(t, e, o)
			o.Parallel = 4
			_, got := scenarioJSON(t, e, o)
			if !bytes.Equal(got, want) {
				t.Errorf("parallel run diverges from serial for %s (%d vs %d bytes)",
					e.ID, len(got), len(want))
			}
		})
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
