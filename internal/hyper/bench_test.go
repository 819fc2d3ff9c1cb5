package hyper

import (
	"math/rand"
	"testing"

	"vswapsim/internal/guest"
	"vswapsim/internal/sim"
)

// BenchmarkTouchAnonScattered reports the cost of one Thread.TouchAnon of
// a resident anonymous page: the guest's slot and frame entries, hyper's
// GFN table and the host descriptor. A 1 GiB guest (262,144 frames) runs
// a process whose 131,072-page working set is first touched in a fixed
// random order, so that neither GFNs nor host descriptors follow the walk
// and the prefetcher cannot hide their cost. The benchmark then walks the
// set with a stride coprime to its size, writing every fourth page, as
// cluster units do.
func BenchmarkTouchAnonScattered(b *testing.B) {
	const (
		frames = 1 << 30 / 4096
		ws     = frames / 2
		stride = ws/3 | 1 // odd, so coprime with the power-of-two ws
	)
	m := NewMachine(MachineConfig{Seed: 1, HostMemPages: 2 * frames, HostSwapPages: 1 << 14})
	vm := m.NewVM(VMConfig{Name: "bench", MemPages: frames, GuestAPF: true})
	m.Env.Go("bench", func(p *sim.Proc) {
		vm.Boot(p)
		pr := vm.OS.NewProcess("app")
		pr.Reserve(ws)
		th := &guest.Thread{OS: vm.OS, P: p, Proc: pr}
		for _, i := range rand.New(rand.NewSource(1)).Perm(ws) {
			th.TouchAnon(pr, i, true)
		}
		b.ResetTimer()
		for i, idx := 0, 0; i < b.N; i++ {
			th.TouchAnon(pr, idx, i%4 == 0)
			idx += stride
			if idx >= ws {
				idx -= ws
			}
		}
		b.StopTimer()
		th.FlushCPU()
		m.Shutdown()
	})
	m.Run()
}
