package workload

import (
	"fmt"

	"vswapsim/internal/guest"
	"vswapsim/internal/hyper"
	"vswapsim/internal/sim"
)

// MetisConfig parameterizes the Metis MapReduce word-count (paper §5.2,
// Figs. 4 and 14): a 300 MB input file is mapped into large in-memory hash
// tables (~1 GB), then reduced. Table pages fill sequentially per bucket,
// making the workload a prime beneficiary of the False Reads Preventer
// when the host has swapped table pages out.
type MetisConfig struct {
	// InputMB is the input file (paper: 300 MB, 1M keys).
	InputMB int
	// TableMB is the aggregate intermediate table size (~1 GB).
	TableMB int
	// CPUPerBlock is map-phase parsing/hashing cost per input block.
	CPUPerBlock sim.Duration
}

const (
	// metisBuckets is how many table regions fill concurrently.
	metisBuckets = 16
	// metisThreads matches the guest's VCPUs (paper: 2).
	metisThreads = 2
	// metisCPUPerTablePage is reduce-phase cost per table page.
	metisCPUPerTablePage = 40 * sim.Microsecond
)

func (c MetisConfig) withDefaults() MetisConfig {
	if c.InputMB == 0 {
		c.InputMB = 300
	}
	if c.TableMB == 0 {
		c.TableMB = 1024
	}
	if c.CPUPerBlock == 0 {
		c.CPUPerBlock = 280 * sim.Microsecond
	}
	return c
}

// Metis launches the MapReduce word-count on vm.
func Metis(vm *hyper.VM, cfg MetisConfig) *Job {
	cfg = cfg.withDefaults()
	pr := vm.OS.NewProcess("metis")
	return launch(vm, "metis", pr, func(t *guest.Thread, j *Job) {
		input := vm.OS.FS.Create("metis.in", int64(cfg.InputMB)<<20)
		tablePages := cfg.TableMB << 20 / 4096
		perBucket := tablePages / metisBuckets
		table := pr.Reserve(metisBuckets * perBucket)

		// bucket fill cursors: (page index within bucket, offset in page)
		type cursor struct{ page, off int }
		cursors := make([]cursor, metisBuckets)
		rng := vm.M.Env.Rand().Fork()

		inputBlocks := int(input.SizeBytes() / 4096)
		perThread := (inputBlocks + metisThreads - 1) / metisThreads
		const recordBytes = 2048 // k/v pairs flushed in batches
		// The paper's word-count emits ~1 GB of table data from 300 MB of
		// input; derive the per-block record count so the configured table
		// actually fills by the end of the map phase.
		recordsPerBlock := int(int64(cfg.TableMB) << 20 / (int64(inputBlocks) * recordBytes))
		if recordsPerBlock < 1 {
			recordsPerBlock = 1
		}

		mapDone := newBarrier(vm.M.Env, metisThreads)
		for w := 0; w < metisThreads; w++ {
			w := w
			vm.OS.Go(fmt.Sprintf("metis-map%d", w), pr, func(wt *guest.Thread) {
				defer mapDone.arrive()
				lo := w * perThread
				hi := lo + perThread
				if hi > inputBlocks {
					hi = inputBlocks
				}
				for b := lo; b < hi && !wt.ProcKilled(); b++ {
					wt.ReadFile(input, int64(b)*4096, 4096)
					wt.Compute(cfg.CPUPerBlock)
					// Each input block emits several records appended to
					// pseudo-random buckets; pages fill front-to-back.
					for rcd := 0; rcd < recordsPerBlock; rcd++ {
						bk := rng.Intn(metisBuckets)
						cu := &cursors[bk]
						if cu.page >= perBucket {
							continue // bucket full
						}
						idx := table + bk*perBucket + cu.page
						wt.WriteAnonSpan(pr, idx, cu.off, recordBytes)
						cu.off += recordBytes
						if cu.off >= 4096 {
							cu.off = 0
							cu.page++
						}
					}
				}
			})
		}
		mapDone.wait(t.P)
		if t.ProcKilled() {
			return
		}

		// Reduce: each thread scans half the buckets' filled pages.
		redDone := newBarrier(vm.M.Env, metisThreads)
		for w := 0; w < metisThreads; w++ {
			w := w
			vm.OS.Go(fmt.Sprintf("metis-red%d", w), pr, func(wt *guest.Thread) {
				defer redDone.arrive()
				for bk := w; bk < metisBuckets; bk += metisThreads {
					filled := cursors[bk].page
					for pg := 0; pg <= filled && pg < perBucket && !wt.ProcKilled(); pg++ {
						wt.TouchAnon(pr, table+bk*perBucket+pg, false)
						wt.Compute(metisCPUPerTablePage)
					}
				}
			})
		}
		redDone.wait(t.P)
	})
}
