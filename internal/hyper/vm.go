package hyper

import (
	"fmt"

	"vswapsim/internal/core"
	"vswapsim/internal/guest"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/sim"
)

// VMConfig describes one guest and which VSwapper components protect it.
type VMConfig struct {
	Name string
	// MemPages is the memory size the guest believes it has.
	MemPages int
	// LimitPages is the cgroup cap on actual residency (0 = uncapped).
	LimitPages int
	// VCPUs for the guest (1-2 in the paper).
	VCPUs int
	// DiskBlocks is the disk image size; GuestSwapBlocks of it form the
	// guest swap partition.
	DiskBlocks      int64
	GuestSwapBlocks int64
	// Mapper / Preventer enable the two VSwapper components.
	Mapper    bool
	Preventer bool
	// GuestAPF: Linux guests reschedule around host page faults
	// (asynchronous page faults); Windows-profile guests do not.
	GuestAPF bool
	// UnalignedGuestIO models a guest whose disk image was formatted with
	// 512-byte logical sectors: its requests violate the Mapper's 4 KiB
	// alignment requirement (paper §4.1 "Page Alignment"), so mapping
	// establishment is impossible and VSwapper degrades to baseline I/O
	// handling. The fix the paper prescribes is reformatting with 4 KiB
	// logical sectors, i.e. leaving this false.
	UnalignedGuestIO bool
	// Guest overrides the guest kernel config (nil = defaults).
	Guest *guest.Config

	// QEMU process model: the executable's hot text pages are the only
	// named memory of a baseline guest ("false page anonymity").
	TextPages    int
	HotTextPages int
	// ExitCost is the CPU cost of one virtio exit round trip.
	ExitCost sim.Duration
	// TextTouchesPerExit / PerMajorFault: how many hot text pages the
	// host-side code touches while servicing these events.
	TextTouchesPerExit  int
	TextTouchesPerFault int

	MapperCfg    core.MapperConfig
	PreventerCfg core.PreventerConfig
}

func (c VMConfig) withDefaults() VMConfig {
	if c.VCPUs == 0 {
		c.VCPUs = 1
	}
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 20 << 30 / 4096 // 20 GB image, like the paper
	}
	if c.GuestSwapBlocks == 0 {
		c.GuestSwapBlocks = int64(c.MemPages) // swap ≈ RAM, Ubuntu-style
	}
	if c.TextPages == 0 {
		c.TextPages = 512 // ~2 MB of QEMU/KVM hot code+data
	}
	if c.HotTextPages == 0 {
		c.HotTextPages = 64
	}
	if c.ExitCost == 0 {
		c.ExitCost = 12 * sim.Microsecond
	}
	if c.TextTouchesPerExit == 0 {
		c.TextTouchesPerExit = 4
	}
	if c.TextTouchesPerFault == 0 {
		c.TextTouchesPerFault = 2
	}
	if c.MapperCfg.PerPageMapCost == 0 {
		c.MapperCfg = core.DefaultMapperConfig()
	}
	if c.PreventerCfg.Deadline == 0 {
		c.PreventerCfg = core.DefaultPreventerConfig()
	}
	return c
}

// VM is one guest: its QEMU process (cgroup, image file, text pages), its
// guest OS, and the optional VSwapper components.
type VM struct {
	M   *Machine
	Cfg VMConfig

	CG    *hostmm.Cgroup
	Image *hostmm.File
	OS    *guest.OS

	// pages holds, by GFN, the index of the frame's host descriptor in
	// the machine's Manager, created lazily (0 = not yet created).
	pages []uint32
	text  []*hostmm.Page
	hot   int

	Mapper    *core.Mapper
	Preventer *core.Preventer

	faultLock *sim.Resource // serializes faults for non-APF guests

	// pageBufs is a freelist of request-page buffers for DiskRead/DiskWrite.
	// A buffer stays checked out across the blocking device wait, and guest
	// threads interleave at blocking points, so concurrent requests need
	// distinct buffers.
	pageBufs [][]*hostmm.Page
}

// getPageBuf checks out an empty page buffer; append to it and return it
// through putPageBuf once the request no longer references it.
func (vm *VM) getPageBuf() []*hostmm.Page {
	if n := len(vm.pageBufs); n > 0 {
		b := vm.pageBufs[n-1]
		vm.pageBufs = vm.pageBufs[:n-1]
		return b
	}
	return make([]*hostmm.Page, 0, virtioMaxBlocks)
}

func (vm *VM) putPageBuf(b []*hostmm.Page) {
	vm.pageBufs = append(vm.pageBufs, b[:0])
}

// NewVM creates a guest on the machine. Boot it with BootVM (inside a
// process) before running workloads.
func (m *Machine) NewVM(cfg VMConfig) *VM {
	cfg = cfg.withDefaults()
	if cfg.MemPages <= 0 {
		panic("hyper: guest MemPages must be positive")
	}
	imgRegion := m.Layout.Reserve(cfg.Name+"-img", cfg.DiskBlocks)
	textRegion := m.Layout.Reserve(cfg.Name+"-qemu", int64(cfg.TextPages))
	vm := &VM{
		M:     m,
		Cfg:   cfg,
		CG:    m.MM.NewCgroup(cfg.Name, cfg.LimitPages),
		Image: m.MM.NewFile(cfg.Name+"-img", imgRegion),
		pages: make([]uint32, cfg.MemPages),
	}
	vm.Image.InvalidateOnWrite = cfg.Mapper
	textFile := m.MM.NewFile(cfg.Name+"-qemu", textRegion)
	vm.text = make([]*hostmm.Page, cfg.TextPages)
	for i := range vm.text {
		vm.text[i] = m.MM.NewFilePage(vm.CG, -(i + 1), textFile.Ref(int64(i)))
	}
	if cfg.Mapper {
		vm.Mapper = core.NewMapper(m.MM, m.Met, vm.Image, cfg.MapperCfg)
	}
	if cfg.Preventer {
		vm.Preventer = core.NewPreventer(m.MM, m.Met, m.Env, cfg.PreventerCfg)
	}
	if !cfg.GuestAPF {
		vm.faultLock = sim.NewResource(m.Env, 1)
	}

	gcfg := guest.DefaultConfig(cfg.MemPages)
	if cfg.Guest != nil {
		gcfg = *cfg.Guest
	}
	gcfg.MemPages = cfg.MemPages
	gcfg.VCPUs = cfg.VCPUs
	fs := guest.NewFileSystem(cfg.DiskBlocks, cfg.GuestSwapBlocks)
	vm.OS = guest.NewOS(m.Env, m.Met, vm, fs, gcfg)
	vm.OS.Trace = m.trace // nil unless EnableTrace ran
	vm.OS.Inj = m.Inj     // nil unless fault injection is on
	m.VMs = append(m.VMs, vm)
	return vm
}

// Boot runs the guest kernel bring-up inside p.
func (vm *VM) Boot(p *sim.Proc) { vm.OS.Boot(p) }

// page returns (creating lazily) the host descriptor for a GFN.
func (vm *VM) page(gfn int) *hostmm.Page {
	if gfn < 0 || gfn >= len(vm.pages) {
		panic(fmt.Sprintf("hyper: GFN %d out of range", gfn))
	}
	if i := vm.pages[gfn]; i != 0 {
		return vm.M.MM.Page(i)
	}
	pg := vm.M.MM.NewPage(vm.CG, gfn)
	vm.pages[gfn] = pg.Index()
	return pg
}

// EachPage calls f for every host page descriptor the VM has materialized:
// guest frames (lazily created by GFN) and QEMU text pages. The
// invariant-audit harness iterates these to check cross-layer properties.
func (vm *VM) EachPage(f func(pg *hostmm.Page)) {
	for _, i := range vm.pages {
		if i != 0 {
			f(vm.M.MM.Page(i))
		}
	}
	for _, pg := range vm.text {
		f(pg)
	}
}

// touchText models host/QEMU code execution: mostly the hot text set, but
// every 16th access lands on a cold page of the full executable — rarely
// taken code paths. Under pressure those cold pages are the first named
// victims, so they refault in host context, which is exactly Fig. 9b's
// "false page anonymity" signal.
func (vm *VM) touchText(p *sim.Proc, n int) {
	hot := vm.Cfg.HotTextPages
	if hot > len(vm.text) {
		hot = len(vm.text)
	}
	for i := 0; i < n; i++ {
		var pg *hostmm.Page
		vm.hot++
		if vm.hot%16 == 0 && len(vm.text) > hot {
			cold := hot + vm.M.Env.Rand().Intn(len(vm.text)-hot)
			pg = vm.text[cold]
		} else {
			pg = vm.text[vm.hot%hot]
		}
		if pg.State == hostmm.ResidentFile {
			vm.M.MM.Touch(pg)
			continue
		}
		if pg.State == hostmm.FileNonResident {
			vm.M.MM.FileFaultIn(p, pg, hostmm.HostCtx)
		}
	}
}

// exit charges one virtio exit: trap cost plus QEMU text execution.
func (vm *VM) exit(p *sim.Proc) {
	p.Sleep(vm.Cfg.ExitCost)
	vm.touchText(p, vm.Cfg.TextTouchesPerExit)
}

// imagePhys translates a vdisk block to a physical disk block.
func (vm *VM) imagePhys(block int64) int64 { return vm.Image.Phys(block) }
