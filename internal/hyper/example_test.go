package hyper_test

import (
	"fmt"

	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// ExampleMachine runs the paper's headline scenario: a guest that believes
// it has four times its actual memory reads a file, with VSwapper keeping
// uncooperative host swapping cheap.
func ExampleMachine() {
	m := hyper.NewMachine(hyper.MachineConfig{
		Seed:         1,
		HostMemPages: 1 << 30 / 4096,
	})
	vm := m.NewVM(hyper.VMConfig{
		Name:       "guest0",
		MemPages:   128 << 20 / 4096, // what the guest believes
		LimitPages: 32 << 20 / 4096,  // what it actually gets
		DiskBlocks: 2 << 30 / 4096,
		Mapper:     true, // enable VSwapper
		Preventer:  true,
		GuestAPF:   true,
	})
	m.Env.Go("main", func(p *sim.Proc) {
		vm.Boot(p)
		res := workload.SeqRead(vm, workload.SeqReadConfig{FileMB: 64}).Wait(p)
		fmt.Println("completed:", !res.Killed)
		m.Shutdown()
	})
	m.Run()
	// Output: completed: true
}

// ExampleVM_PlanMigration classifies a guest's pages for live migration
// (the paper's §7 future work): pages the Swap Mapper tracks travel as
// disk mappings instead of content.
func ExampleVM_PlanMigration() {
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 1, HostMemPages: 1 << 30 / 4096})
	vm := m.NewVM(hyper.VMConfig{
		Name:       "guest0",
		MemPages:   64 << 20 / 4096,
		DiskBlocks: 1 << 30 / 4096,
		Mapper:     true,
		GuestAPF:   true,
	})
	m.Env.Go("main", func(p *sim.Proc) {
		vm.Boot(p)
		workload.SeqRead(vm, workload.SeqReadConfig{FileMB: 16}).Wait(p)
		plan := vm.PlanMigration()
		fmt.Println("mapping-only beats copying:", plan.TransferBytes() < plan.NaiveTransferBytes())
		m.Shutdown()
	})
	m.Run()
	// Output: mapping-only beats copying: true
}
