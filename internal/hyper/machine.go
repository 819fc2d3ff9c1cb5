// Package hyper assembles the virtual machine monitor: the physical host
// (disk, frame pool, host MM), per-guest QEMU processes (cgroup, disk
// image, executable pages), the virtio disk emulation path, and the
// EPT-violation fault path. VSwapper (internal/core) plugs into the virtio
// and fault paths exactly where the paper inserts it.
package hyper

import (
	"vswapsim/internal/disk"
	"vswapsim/internal/fault"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/mem"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
	"vswapsim/internal/trace"
)

// MachineConfig sizes the physical host. The experiment layer hands every
// cell's runner one that already carries the cell seed, the cell's event
// loop and the invocation's fault plan, swap tier and policy; a runner
// adds sizes and tweaks, and a cluster copies it per host.
type MachineConfig struct {
	// Seed drives all experiment randomness.
	Seed uint64
	// HostMemPages is the physical memory size in pages.
	HostMemPages int
	// HostSwapPages is the host swap partition size in pages.
	HostSwapPages int64
	// Disk selects the drive latency model (default Constellation 7200).
	Disk disk.LatencyModel
	// Swapback selects the swap-destination tier (internal/swapback). The
	// zero value (HDD) forwards to the raw device, byte-identical to the
	// pre-backend simulator; file-backed I/O always uses the raw device.
	Swapback swapback.Kind
	// SwapPolicy selects the tiering policy for backends with a fast tier
	// (zswap); single-tier backends ignore it.
	SwapPolicy swapback.Policy
	// Host configures the host memory manager.
	Host hostmm.Config
	// Faults schedules deterministic fault injection across the disk,
	// host-MM, VSwapper and balloon layers (see internal/fault). The zero
	// Plan disables injection entirely, at zero cost.
	Faults fault.Plan
	// FaultsDisarmed builds the injector for Faults but leaves it disarmed;
	// the run arms it later via Machine.Inj.SetEnabled(true) (scenario
	// timelines inject faults mid-run this way). Meaningless when Faults is
	// empty: no injector exists to arm.
	FaultsDisarmed bool
	// Env, when non-nil, is the event loop the machine runs on; its owner
	// sets its watchdog budget. The experiment layer creates one per cell,
	// and a cluster cell runs all its hosts on it. Seed still drives this
	// machine's derived streams (injector, swapback), so two hosts on one
	// env stay decorrelated. A nil Env gives the machine a loop of its own,
	// seeded by Seed, with no budget.
	Env *sim.Env
}

// Machine is one physical host.
type Machine struct {
	Env    *sim.Env
	Met    *metrics.Set
	Dev    *disk.Device
	Layout *disk.Layout
	Pool   *mem.FramePool
	MM     *hostmm.Manager
	VMs    []*VM
	// Inj is the machine's fault injector (nil when MachineConfig.Faults
	// is empty).
	Inj *fault.Injector

	stopKswapd func()
	trace      *trace.Ring
	seed       uint64

	// Handles on the counters DiskRead and DiskWrite update per virtio
	// request, resolved once in NewMachine.
	imageRead, imageWrite *metrics.Counter
}

// NewMachine builds a host.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.HostMemPages <= 0 {
		panic("hyper: HostMemPages must be positive")
	}
	if cfg.HostSwapPages == 0 {
		cfg.HostSwapPages = 4 << 20 / 4 // 4 GiB default
	}
	if cfg.Disk.TotalBlocks == 0 {
		cfg.Disk = disk.Constellation7200()
	}
	env := cfg.Env
	if env == nil {
		env = sim.NewEnv(cfg.Seed)
	}
	met := metrics.NewSet()
	dev := disk.NewDevice(env, cfg.Disk, met)
	layout := disk.NewLayout(cfg.Disk.TotalBlocks)
	swapRegion := layout.Reserve("host-swap", cfg.HostSwapPages)
	pool := mem.NewFramePool(cfg.HostMemPages)
	mm := hostmm.NewManager(env, met, dev, pool, hostmm.NewSwapArea(swapRegion), cfg.Host)
	// The injector draws from its own derived stream, never from env's, so
	// an empty plan leaves the simulation bit-identical to no injection.
	inj := fault.New(cfg.Faults, sim.DeriveSeed(cfg.Seed, "fault-injector"), met)
	if cfg.FaultsDisarmed {
		inj.SetEnabled(false)
	}
	dev.SetInjector(inj)
	mm.Inj = inj
	if cfg.Swapback != swapback.HDD {
		// Non-default backends get their own derived stream (remote tail
		// latency, per-page compressibility); the default keeps the
		// transparent store NewManager installed, drawing nothing.
		mm.SetBackend(swapback.New(swapback.Config{
			Kind:   cfg.Swapback,
			Policy: cfg.SwapPolicy,
			Env:    env,
			Met:    met,
			Dev:    dev,
			Phys:   mm.Swap.Phys,
			Pool:   pool,
			Inj:    inj,
			Seed:   sim.DeriveSeed(cfg.Seed, "swapback"),
		}))
	}
	m := &Machine{
		Env:    env,
		Met:    met,
		Dev:    dev,
		Layout: layout,
		Pool:   pool,
		MM:     mm,
		Inj:    inj,
		seed:   cfg.Seed,

		imageRead:  met.Counter(metrics.ImageReadSectors),
		imageWrite: met.Counter(metrics.ImageWriteSectors),
	}
	m.stopKswapd = mm.StartKswapd(hostmm.DefaultKswapdConfig())
	return m
}

// EnableTrace attaches a bounded event trace to the host MM and every
// guest kernel — including guests created after this call; it returns the
// ring for inspection.
func (m *Machine) EnableTrace(capacity int) *trace.Ring {
	r := trace.New(capacity)
	m.MM.Trace = r
	m.trace = r
	for _, vm := range m.VMs {
		vm.OS.Trace = r
	}
	return r
}

// Run drives the simulation to completion and returns the final time.
func (m *Machine) Run() sim.Time { return m.Env.Run() }

// Shutdown stops all guest and host daemons so Run can drain.
func (m *Machine) Shutdown() {
	for _, vm := range m.VMs {
		vm.OS.Shutdown()
	}
	if m.stopKswapd != nil {
		m.stopKswapd()
	}
}
