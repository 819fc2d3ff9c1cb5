package workload

import (
	"fmt"

	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// Pbzip2Config parameterizes the parallel bzip2 compression benchmark
// (paper §5.1, Fig. 5, Fig. 11): 8 threads compress the Linux kernel
// source, streaming it through the page cache while keeping per-thread
// working buffers.
type Pbzip2Config struct {
	// InputMB is the input size (a Linux source tree tarball, ~450 MB).
	InputMB int
	// Threads is the compression thread count (paper: 8 on 1 VCPU).
	Threads int
	// CPUPerBlock is compression cost per 4 KiB input block.
	CPUPerBlock sim.Duration
	// WorkingPages is each thread's reusable buffer (sort arrays etc.).
	WorkingPages int
}

const (
	// Pbzip2WorkingPages is the paper-sized WorkingPages: bzip2 -9 block
	// sorting plus queued chunks, ~20 MB per thread, giving the ~200 MB
	// process footprint implied by the paper's observation that the guest
	// kills pbzip2 below 240 MB (Fig. 5).
	Pbzip2WorkingPages = 5120
	// pbzip2ChunkKB is the work unit each thread claims (pbzip2's
	// default).
	pbzip2ChunkKB = 900
	// pbzip2OutputRatio is output bytes per input byte (compressed size):
	// source code compresses well.
	pbzip2OutputRatio = 0.22
)

func (c Pbzip2Config) withDefaults() Pbzip2Config {
	if c.InputMB == 0 {
		c.InputMB = 448
	}
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.CPUPerBlock == 0 {
		c.CPUPerBlock = 850 * sim.Microsecond // ~5 MB/s aggregate on 1 VCPU
	}
	if c.WorkingPages == 0 {
		c.WorkingPages = Pbzip2WorkingPages
	}
	return c
}

// Pbzip2 launches the compression benchmark on vm.
func Pbzip2(vm *hyper.VM, cfg Pbzip2Config) *Job {
	cfg = cfg.withDefaults()
	pr := vm.OS.NewProcess("pbzip2")
	return launch(vm, "pbzip2", pr, func(t *guest.Thread, j *Job) {
		input := vm.OS.FS.Create("pbzip2.in", int64(cfg.InputMB)<<20)
		output := vm.OS.FS.Create("pbzip2.out", int64(float64(cfg.InputMB)*pbzip2OutputRatio*1.2)<<20)

		chunk := int64(pbzip2ChunkKB) << 10
		nChunks := (input.SizeBytes() + chunk - 1) / chunk
		next := int64(0) // work queue cursor (single assignment per chunk)
		outCursor := int64(0)

		// Per-thread working buffers are carved from one arena process.
		base := pr.Reserve(cfg.Threads * cfg.WorkingPages)
		done := newBarrier(vm.M.Env, cfg.Threads)
		for w := 0; w < cfg.Threads; w++ {
			w := w
			vm.OS.Go(fmt.Sprintf("pbzip2-w%d", w), pr, func(wt *guest.Thread) {
				defer done.arrive()
				buf := base + w*cfg.WorkingPages
				cursor := 0 // rolls across chunks: the whole buffer stays hot
				for !wt.ProcKilled() {
					if next >= nChunks {
						return
					}
					c := next
					next++
					off := c * chunk
					n := chunk
					if off+n > input.SizeBytes() {
						n = input.SizeBytes() - off
					}
					wt.ReadFile(input, off, n)
					// Block-sort in the working buffer: every buffer page
					// is rewritten per chunk (whole-page stores), touching
					// the thread's anon working set.
					blocks := int(n / 4096)
					for i := 0; i < blocks && !wt.ProcKilled(); i++ {
						wt.OverwriteAnon(pr, buf+cursor, true)
						cursor = (cursor + 1) % cfg.WorkingPages
						wt.Compute(cfg.CPUPerBlock)
					}
					// Write the compressed chunk.
					outN := int64(float64(n) * pbzip2OutputRatio)
					if outCursor+outN > output.SizeBytes() {
						outN = output.SizeBytes() - outCursor
					}
					if outN > 0 {
						wt.WriteFile(output, outCursor, outN)
						outCursor += outN
					}
				}
			})
		}
		done.wait(t.P)
		if !t.ProcKilled() {
			t.Sync(output)
		}
	})
}
