package experiment

import (
	"fmt"

	"vswapsim/internal/core"
	"vswapsim/internal/disk"
	"vswapsim/internal/hyper"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// Overhead reproduces §5.3: with plentiful memory, VSwapper's mmap-based
// tracking must cost at most a few percent.
func Overhead(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:        "overhead",
		Title:     "VSwapper overhead with plentiful memory (§5.3)",
		PaperNote: "up to 3.5% slowdown when host swapping is not required",
	}
	tab := &Table{Columns: []string{"workload", "baseline [s]", "vswapper [s]", "slowdown"}}
	bodies := []struct {
		name string
		body func(vm *hyper.VM, p *sim.Proc) *workload.Job
	}{
		{"seqread 200MB x2", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200), Iterations: 2})
		}},
		{"pbzip2 128MB", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Pbzip2(vm, workload.Pbzip2Config{InputMB: o.mb(128)})
		}},
		{"kernbench 400 files", func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Kernbench(vm, workload.KernbenchConfig{Files: int(400 * o.Scale)})
		}},
	}
	for _, w := range bodies {
		var runs [2]cell
		for i, s := range []scenario.Scheme{scenario.Baseline, scenario.VSwapper} {
			runs[i] = rep.keep(runSingle(runCfg{
				opts: o, scheme: s,
				guestMB:  512,
				actualMB: 512, // uncapped: no host swapping
			}, w.body))
		}
		base, vsw := runs[0], runs[1]
		slowdown := "-"
		if !base.failed() && !vsw.failed() {
			slow := float64(vsw.runtime)/float64(base.runtime) - 1
			slowdown = fmt.Sprintf("%+.1f%%", slow*100)
		}
		tab.Add(w.name, base.show("%s", secs(base.runtime)), vsw.show("%s", secs(vsw.runtime)), slowdown)
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}

// Windows reproduces §5.4: a non-Linux guest profile (no asynchronous page
// faults, 4 KiB-aligned I/O enforced by the reported sector size).
func Windows(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:        "windows",
		Title:     "Windows Server 2012 guest (§5.4)",
		PaperNote: "sysbench 2GB read in 1GB: 302s -> 79s with vswapper; bzip2 at 512MB: 306s -> 149s",
	}
	tab := &Table{Columns: []string{"workload", "baseline [s]", "vswapper [s]", "paper"}}
	noAPF := func(c *hyper.VMConfig) { c.GuestAPF = false }

	type cfg struct {
		name, paper string
		actualMB    int
		body        func(vm *hyper.VM, p *sim.Proc) *workload.Job
	}
	cases := []cfg{
		{"sysbench 2GB read", "302 -> 79", 1024, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(2048)})
		}},
		{"bzip2", "306 -> 149", 512, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.Pbzip2(vm, workload.Pbzip2Config{InputMB: o.mb(448), Threads: 1})
		}},
	}
	for _, c := range cases {
		row := []string{c.name}
		for _, s := range []scenario.Scheme{scenario.Baseline, scenario.VSwapper} {
			out := rep.keep(runSingle(runCfg{
				opts: o, scheme: s,
				guestMB:  2048,
				actualMB: c.actualMB,
				hostMB:   8192,
				warmup:   true,
				vmTweak:  noAPF,
			}, c.body))
			row = append(row, out.show("%s", secs(out.runtime)))
		}
		tab.Add(append(row, c.paper)...)
	}
	rep.Tables = append(rep.Tables, tab)
	return rep
}

// Ablations exercises the design choices DESIGN.md calls out: Preventer
// deadline and concurrency cap, swap readahead cluster, file readahead
// window, and the EPT dirty-bit hardware assist the paper anticipates.
func Ablations(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:    "ablation",
		Title: "Design-choice ablations (DESIGN.md §6)",
	}

	// Preventer knobs on the Fig. 10 allocation storm.
	prevTab := &Table{
		Title:   "preventer knobs: alloc+access 200MB at 100MB (vswapper)",
		Columns: []string{"deadline", "max pages", "runtime [s]", "remaps", "merges"},
	}
	for _, k := range []struct {
		deadline sim.Duration
		max      int
	}{
		{100 * sim.Microsecond, 32},
		{sim.Millisecond, 32},
		{10 * sim.Millisecond, 32},
		{sim.Millisecond, 8},
		{sim.Millisecond, 128},
	} {
		k := k
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: scenario.VSwapper,
			guestMB: 512, actualMB: 100,
			warmup: true,
			vmTweak: func(c *hyper.VMConfig) {
				c.PreventerCfg = core.PreventerConfig{Deadline: k.deadline, MaxConcurrent: k.max}
			},
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.AllocTouch(vm, workload.AllocTouchConfig{SizeMB: o.mb(200)})
		}))
		prevTab.Add(k.deadline.String(), fmt.Sprintf("%d", k.max),
			runtimeSecs(out),
			out.show("%d", out.met["vswap.preventer.remaps"]),
			out.show("%d", out.met["vswap.preventer.merges"]))
	}
	rep.Tables = append(rep.Tables, prevTab)

	// Host readahead knobs on the Fig. 3 read (baseline: swap cluster;
	// vswapper: file readahead window).
	raTab := &Table{
		Title:   "host readahead: 200MB read at 100MB",
		Columns: []string{"config", "swap cluster", "file RA max", "runtime [s]"},
	}
	for _, k := range []struct {
		scheme  scenario.Scheme
		cluster int
		ramax   int
	}{
		{scenario.Baseline, 1, 32},
		{scenario.Baseline, 8, 32},
		{scenario.Baseline, 32, 32},
		{scenario.VSwapper, 8, 8},
		{scenario.VSwapper, 8, 32},
		{scenario.VSwapper, 8, 128},
	} {
		k := k
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: k.scheme,
			guestMB: 512, actualMB: 100,
			warmup: true,
			hostTweak: func(c *hyper.MachineConfig) {
				c.Host.SwapClusterPages = k.cluster
				c.Host.FileRAMaxPages = k.ramax
			},
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)})
		}))
		raTab.Add(k.scheme.String(), fmt.Sprintf("%d", k.cluster), fmt.Sprintf("%d", k.ramax),
			runtimeSecs(out))
	}
	rep.Tables = append(rep.Tables, raTab)

	// EPT dirty bits (anticipated hardware assist).
	dbTab := &Table{
		Title:   "EPT dirty bits (Haswell assist, §5.3): 200MB read x3 at 100MB, baseline",
		Columns: []string{"dirty bits", "runtime [s]", "swap write sectors"},
	}
	for _, db := range []bool{false, true} {
		db := db
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: scenario.Baseline,
			guestMB: 512, actualMB: 100,
			warmup: true,
			hostTweak: func(c *hyper.MachineConfig) {
				c.Host.EPTDirtyBits = db
			},
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200), Iterations: 3})
		}))
		dbTab.Add(fmt.Sprintf("%v", db), runtimeSecs(out),
			out.show("%d", out.met["hostswap.write.sectors"]))
	}
	rep.Tables = append(rep.Tables, dbTab)

	// SSD substrate: placement decay stops mattering, but VSwapper still
	// eliminates the swap write traffic that costs flash endurance
	// (paper §5.1: "beneficial for systems that employ SSDs").
	ssdTab := &Table{
		Title:   "SSD substrate: 200MB read x3 at 100MB",
		Columns: []string{"config", "disk", "runtime [s]", "swap write sectors"},
	}
	for _, k := range []struct {
		scheme scenario.Scheme
		ssd    bool
	}{
		{scenario.Baseline, false}, {scenario.Baseline, true},
		{scenario.VSwapper, false}, {scenario.VSwapper, true},
	} {
		k := k
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: k.scheme,
			guestMB: 512, actualMB: 100,
			warmup: true,
			hostTweak: func(c *hyper.MachineConfig) {
				if k.ssd {
					c.Disk = disk.SSD840()
				}
			},
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200), Iterations: 3})
		}))
		name := "hdd"
		if k.ssd {
			name = "ssd"
		}
		ssdTab.Add(k.scheme.String(), name, runtimeSecs(out),
			out.show("%d", out.met["hostswap.write.sectors"]))
	}
	rep.Tables = append(rep.Tables, ssdTab)

	// Page alignment (paper §4.1): images with 512-byte logical sectors
	// defeat the Mapper; the fix is reformatting with 4 KiB sectors.
	alTab := &Table{
		Title:   "page alignment: 200MB read at 100MB (vswapper)",
		Columns: []string{"guest image", "runtime [s]", "mappings established"},
	}
	for _, unaligned := range []bool{false, true} {
		unaligned := unaligned
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: scenario.VSwapper,
			guestMB: 512, actualMB: 100,
			warmup: true,
			vmTweak: func(c *hyper.VMConfig) {
				c.UnalignedGuestIO = unaligned
			},
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(200)})
		}))
		name := "4KiB sectors"
		if unaligned {
			name = "512B sectors (needs reformat)"
		}
		alTab.Add(name, runtimeSecs(out),
			out.show("%d", out.met["vswap.mapper.assoc.established"]))
	}
	rep.Tables = append(rep.Tables, alTab)
	return rep
}
