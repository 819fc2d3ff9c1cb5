package balloon

import (
	"testing"

	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

const mib = 1 << 20

// pressureRig builds a host whose pool is mostly consumed by one greedy
// guest, so the manager must inflate balloons.
func pressureRig(t *testing.T) (*hyper.Machine, *hyper.VM, *Manager) {
	t.Helper()
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 5, HostMemPages: 128 * mib / 4096})
	vm := m.NewVM(hyper.VMConfig{
		Name:       "vm0",
		MemPages:   192 * mib / 4096, // overcommitted vs the 128 MiB host
		DiskBlocks: 2 << 30 / 4096,
		GuestAPF:   true,
	})
	mgr := New(m)
	return m, vm, mgr
}

func TestManagerInflatesUnderPressure(t *testing.T) {
	m, vm, mgr := pressureRig(t)
	m.Env.Go("driver", func(p *sim.Proc) {
		vm.Boot(p)
		mgr.Start()
		th := &guest.Thread{OS: vm.OS, P: p}
		// Consume host memory: touch lots of guest pages.
		pr := vm.OS.NewProcess("hog")
		n := 110 * mib / 4096
		pr.Reserve(n)
		for i := 0; i < n; i++ {
			th.TouchAnon(pr, i, true)
		}
		pr.Exit() // guest now has lots of idle (free) memory
		p.Sleep(30 * sim.Second)
		mgr.Stop()
		m.Shutdown()
	})
	m.Run()
	if vm.OS.BalloonPages() == 0 {
		t.Fatal("manager never inflated despite host pressure")
	}
}

func TestManagerDeflatesWhenRelieved(t *testing.T) {
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 5, HostMemPages: 512 * mib / 4096})
	vm := m.NewVM(hyper.VMConfig{
		Name:       "vm0",
		MemPages:   128 * mib / 4096,
		DiskBlocks: 2 << 30 / 4096,
		GuestAPF:   true,
	})
	mgr := New(m)
	m.Env.Go("driver", func(p *sim.Proc) {
		vm.Boot(p)
		// Pre-inflate, then let the (pressure-free) manager deflate.
		vm.OS.SetBalloonTarget(64 * mib / 4096)
		for vm.OS.BalloonPages() < 64*mib/4096 {
			p.Sleep(100 * sim.Millisecond)
		}
		mgr.Start()
		p.Sleep(40 * sim.Second)
		mgr.Stop()
		m.Shutdown()
	})
	m.Run()
	if got := vm.OS.BalloonPages(); got != 0 {
		t.Fatalf("balloon still at %d pages on an idle host", got)
	}
}

// TestManagerStepBoundsRate: under pressure, a guest with far more idle
// memory than one step gives it up at most one step (stepFraction of its
// memory) per tick.
func TestManagerStepBoundsRate(t *testing.T) {
	m, vm, mgr := pressureRig(t)
	var idle, targetAfter3 int
	m.Env.Go("driver", func(p *sim.Proc) {
		vm.Boot(p)
		th := &guest.Thread{OS: vm.OS, P: p}
		pr := vm.OS.NewProcess("hog")
		n := 110 * mib / 4096
		pr.Reserve(n)
		for i := 0; i < n; i++ {
			th.TouchAnon(pr, i, true)
		}
		pr.Exit()
		idle = vm.OS.FreePages()
		mgr.Start()
		p.Sleep(3*sim.Second + 100*sim.Millisecond)
		targetAfter3 = vm.OS.BalloonTarget()
		mgr.Stop()
		m.Shutdown()
	})
	m.Run()
	maxPerTick := int(float64(vm.Cfg.MemPages) * stepFraction)
	if idle <= 8*maxPerTick {
		t.Fatalf("the guest has %d idle pages: too few to tell a %d-page step bound", idle, maxPerTick)
	}
	if targetAfter3 > 4*maxPerTick {
		t.Fatalf("target %d exceeds rate bound %d after 3 ticks", targetAfter3, 4*maxPerTick)
	}
	if targetAfter3 == 0 {
		t.Fatal("manager made no progress")
	}
}
