package experiment

import "testing"

// TestFleetParallelEquivalence proves the cloud-density entries are safe
// under the parallel executor: the fleetN registry entry and `vswapsim run
// scenarios/fleet.yaml` must each produce byte-identical JSON reports in
// the serial and the parallel golden pass. Both run fleet.yaml, but their
// ids key different seed streams, so each gets its own check.
func TestFleetParallelEquivalence(t *testing.T) {
	for _, c := range []struct{ name, key string }{
		{"fleetN", "fleetN"},
		{"fleet", "scenarios/fleet.yaml"},
	} {
		t.Run(c.name, func(t *testing.T) { checkPassesAgree(t, c.key) })
	}
}

// BenchmarkRegistry times each experiment end to end at the golden
// configuration (quick, 1/8 scale, serial). Every iteration is a fresh
// invocation with its own pbzip2 sweep memo, so fig5 and fig11 pay full
// cost. BenchmarkRegistry/fleetN is the large-fleet stress benchmark:
//
//	go test ./internal/experiment -run xxx -bench Registry/fleetN
func BenchmarkRegistry(b *testing.B) {
	for _, e := range Registry {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(goldenOpts())
			}
		})
	}
}
