// Package balloon implements a MOM-like balloon manager (paper §5.2): a
// host daemon that periodically samples host and guest memory statistics
// and adjusts each guest's balloon target. Its value — and its latency
// under changing load — are what Figs. 4 and 14 measure.
package balloon

import (
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// The manager's control loop, with MOM's shipped policy knobs.
const (
	// interval between samples (MOM default: 1 s).
	interval = sim.Second
	// pressureThreshold: below this fraction of free host memory the
	// manager starts inflating balloons.
	pressureThreshold = 0.20
	// reliefThreshold: above this fraction it deflates.
	reliefThreshold = 0.30
	// guestReserve is the fraction of its memory a guest always keeps.
	guestReserve = 0.05
	// stepFraction bounds how much of a guest's memory the target may
	// move per interval — the source of ballooning's sluggishness.
	stepFraction = 0.05
)

// Manager is the balloon controller for one machine.
type Manager struct {
	M    *hyper.Machine
	stop bool
}

// New creates a manager; call Start to launch its control loop.
func New(m *hyper.Machine) *Manager { return &Manager{M: m} }

// Start launches the control loop as a simulated daemon.
func (mgr *Manager) Start() {
	mgr.M.Env.Go("mom", func(p *sim.Proc) {
		for !mgr.stop {
			mgr.tick()
			p.Sleep(interval)
		}
	})
}

// Stop ends the control loop at its next tick.
func (mgr *Manager) Stop() { mgr.stop = true }

// tick is one control decision: sample host pressure, then nudge each
// guest's balloon target.
func (mgr *Manager) tick() {
	pool := mgr.M.Pool
	freeRatio := float64(pool.Free()) / float64(pool.Capacity())
	for _, vm := range mgr.M.VMs {
		total := vm.Cfg.MemPages
		step := int(float64(total) * stepFraction)
		reserve := int(float64(total) * guestReserve)
		cur := vm.OS.BalloonTarget()
		visible := total - vm.OS.BalloonPages()
		guestFreeFrac := 1.0
		if visible > 0 {
			guestFreeFrac = float64(vm.OS.FreePages()) / float64(visible)
		}
		switch {
		case guestFreeFrac < 0.10 && cur > 0:
			// The guest itself is squeezed: give memory back first (MOM
			// balances guest pressure against host pressure).
			shrink := step
			if shrink > cur {
				shrink = cur
			}
			vm.OS.SetBalloonTarget(cur - shrink)
		case freeRatio < pressureThreshold && guestFreeFrac > 0.20:
			// Take the guest's unused memory, leaving a small reserve.
			idle := vm.OS.FreePages() - reserve
			grow := idle
			if grow > step {
				grow = step
			}
			if grow > 0 {
				vm.OS.SetBalloonTarget(cur + grow)
			}
		case freeRatio > reliefThreshold && cur > 0:
			// Give memory back gradually.
			shrink := step
			if shrink > cur {
				shrink = cur
			}
			vm.OS.SetBalloonTarget(cur - shrink)
		}
	}
}
