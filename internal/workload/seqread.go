package workload

import (
	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// SeqReadConfig parameterizes the Sysbench sequential file-read benchmark
// (paper §3.1, Fig. 3, Fig. 9).
type SeqReadConfig struct {
	// FileMB is the file size (paper: 200 MB; §5.4 uses 1–2 GB).
	FileMB int
	// Iterations repeats the full read (Fig. 9 runs 8).
	Iterations int
	// CPUPerBlock is the benchmark's processing cost per 4 KiB block.
	CPUPerBlock sim.Duration
	// AfterIteration, when set, is called with the iteration index after
	// each pass (used to snapshot counters for Fig. 9 panels).
	AfterIteration func(i int)
	// FileName allows several instances to share or separate files.
	FileName string
}

func (c SeqReadConfig) withDefaults() SeqReadConfig {
	if c.FileMB == 0 {
		c.FileMB = 200
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.CPUPerBlock == 0 {
		c.CPUPerBlock = 2 * sim.Microsecond
	}
	if c.FileName == "" {
		c.FileName = "sysbench.data"
	}
	return c
}

// SeqRead launches the Sysbench file-read workload on vm.
func SeqRead(vm *hyper.VM, cfg SeqReadConfig) *Job {
	cfg = cfg.withDefaults()
	pr := vm.OS.NewProcess("sysbench")
	return launch(vm, "seqread", pr, func(t *guest.Thread, j *Job) {
		size := int64(cfg.FileMB) << 20
		f, ok := vm.OS.FS.Lookup(cfg.FileName)
		if !ok {
			f = vm.OS.FS.Create(cfg.FileName, size)
		}
		blocks := size / 4096
		for it := 0; it < cfg.Iterations && !t.ProcKilled(); it++ {
			start := t.P.Now()
			// Sysbench reads in 16 KiB chunks; the guest page cache and
			// readahead make the chunk size immaterial at block level.
			t.ReadFile(f, 0, size)
			t.Compute(sim.Duration(blocks) * cfg.CPUPerBlock)
			t.FlushCPU()
			j.res.Iterations = append(j.res.Iterations, t.P.Now().Sub(start))
			if cfg.AfterIteration != nil {
				cfg.AfterIteration(it)
			}
		}
	})
}

// AllocTouchConfig parameterizes the allocate-and-sequentially-access
// microbenchmark the paper appends to Sysbench to expose false reads
// (Fig. 10).
type AllocTouchConfig struct {
	// SizeMB of anonymous memory to allocate and access (paper: 200 MB).
	SizeMB int
}

const (
	// allocTouchSpanBytes: after the kernel zeroes each fresh page, the
	// process writes its data in a span of this size.
	allocTouchSpanBytes = 1024
	// allocTouchCPUPerPage is computation per touched page.
	allocTouchCPUPerPage = 500 * sim.Nanosecond
)

func (c AllocTouchConfig) withDefaults() AllocTouchConfig {
	if c.SizeMB == 0 {
		c.SizeMB = 200
	}
	return c
}

// AllocTouch launches the allocation microbenchmark on vm.
func AllocTouch(vm *hyper.VM, cfg AllocTouchConfig) *Job {
	cfg = cfg.withDefaults()
	pr := vm.OS.NewProcess("alloctouch")
	return launch(vm, "alloctouch", pr, func(t *guest.Thread, j *Job) {
		pages := cfg.SizeMB << 20 / 4096
		pr.Reserve(pages)
		for i := 0; i < pages && !t.ProcKilled(); i++ {
			// First touch allocates + zeroes (REP); then the process
			// fills part of the page with its own data.
			t.TouchAnon(pr, i, true)
			if !t.ProcKilled() {
				t.WriteAnonSpan(pr, i, 0, allocTouchSpanBytes)
			}
			t.Compute(allocTouchCPUPerPage)
		}
	})
}
