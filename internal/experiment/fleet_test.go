package experiment

import "testing"

// TestFleetParallelEquivalence proves the cloud-density entries are safe
// under the parallel executor: the fleetN registry entry and `vswapsim run
// scenarios/fleet.yaml` must each produce byte-identical JSON reports in
// the serial and the parallel golden pass. Both read fleet.yaml's cells,
// which the serial pass simulates for each and the parallel pass once.
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
// invocation with its own cell memo, so an entry that reads another's
// cells (fig11 and fig5's sweep, fig4 and fig14's 10-guest row) pays for
// simulating them. BenchmarkRegistry/fleetN is the large-fleet stress
// benchmark:
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
