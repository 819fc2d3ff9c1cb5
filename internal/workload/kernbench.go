package workload

import (
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// KernbenchConfig parameterizes the kernel-build benchmark (paper §5.1,
// Fig. 12): thousands of short-lived compiler processes, each reading
// sources, churning heap pages (fork + COW + brk recycling — the source
// of the Preventer's remaps), and writing object files.
type KernbenchConfig struct {
	// Files is the number of compilation units.
	Files int
	// CPUPerFile is the compile cost of one unit.
	CPUPerFile sim.Duration
}

const (
	// kernbenchSrcBlocks / kernbenchObjBlocks are per-file read and write
	// sizes in 4 KiB blocks: ~160 KB of sources+headers per unit is a
	// ~450 MB tree at 2800 units, matching a Linux 3.x checkout.
	kernbenchSrcBlocks = 40
	kernbenchObjBlocks = 10
	// kernbenchHeapPages is the compiler's transient heap per unit (~1.5
	// MB of cc1 heap churn), freed (and recycled by the guest) after each
	// unit.
	kernbenchHeapPages = 384
	// kernbenchJobs is the make -jN parallelism.
	kernbenchJobs = 4
)

func (c KernbenchConfig) withDefaults() KernbenchConfig {
	if c.Files == 0 {
		c.Files = 2800
	}
	if c.CPUPerFile == 0 {
		c.CPUPerFile = 420 * sim.Millisecond // ~20 min build on 1 VCPU
	}
	return c
}

// Kernbench launches the kernel build on vm.
func Kernbench(vm *hyper.VM, cfg KernbenchConfig) *Job {
	cfg = cfg.withDefaults()
	pr := vm.OS.NewProcess("make")
	return launch(vm, "kernbench", pr, func(t *guest.Thread, j *Job) {
		tree := vm.OS.FS.Create("linux-src", int64(cfg.Files*kernbenchSrcBlocks)*4096)
		objs := vm.OS.FS.Create("linux-obj", int64(cfg.Files*kernbenchObjBlocks)*4096)
		rng := vm.M.Env.Rand().Fork()

		// The compiler heap arena: each job slot recycles its own pages,
		// modelling exec/exit address-space churn.
		arena := pr.Reserve(kernbenchJobs * kernbenchHeapPages)
		nextFile := 0
		done := newBarrier(vm.M.Env, kernbenchJobs)
		for jb := 0; jb < kernbenchJobs; jb++ {
			jb := jb
			vm.OS.Go("cc1", pr, func(wt *guest.Thread) {
				defer done.arrive()
				heap := arena + jb*kernbenchHeapPages
				for !wt.ProcKilled() {
					if nextFile >= cfg.Files {
						return
					}
					fidx := nextFile
					nextFile++
					// Read this unit's sources plus one shared header
					// region (cached after the first few units).
					srcOff := int64(fidx*kernbenchSrcBlocks) * 4096
					wt.ReadFile(tree, srcOff, int64(kernbenchSrcBlocks)*4096)
					hdr := int64(rng.Intn(64)) * 4096
					wt.ReadFile(tree, hdr, 4096)

					// Fresh compiler process: heap pages freed by the
					// previous unit are reallocated and zeroed — exactly
					// the GFN-recycling pattern behind false reads.
					for hp := 0; hp < kernbenchHeapPages && !wt.ProcKilled(); hp++ {
						wt.OverwriteAnon(pr, heap+hp, true)
					}
					wt.Compute(cfg.CPUPerFile)
					// Some heap pages are written with data structures.
					for hp := 0; hp < kernbenchHeapPages/4 && !wt.ProcKilled(); hp++ {
						wt.WriteAnonSpan(pr, heap+hp, 0, 2048)
					}
					// Release the heap back to the guest allocator.
					for hp := 0; hp < kernbenchHeapPages; hp++ {
						wt.FreeAnon(pr, heap+hp)
					}
					// Emit the object file.
					objOff := int64(fidx*kernbenchObjBlocks) * 4096
					wt.WriteFile(objs, objOff, int64(kernbenchObjBlocks)*4096)
				}
			})
		}
		done.wait(t.P)
		if !t.ProcKilled() {
			t.Sync(objs)
		}
	})
}
