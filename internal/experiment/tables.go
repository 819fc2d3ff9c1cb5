package experiment

import (
	"embed"
	"fmt"
	"strings"

	"vswapsim/internal/core"
	"vswapsim/internal/hostmm"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/scenario"
	"vswapsim/internal/sim"
	"vswapsim/internal/workload"
)

// Table1 reports the size of this reproduction's VSwapper implementation,
// mirroring the paper's Table 1 (lines of code of the Mapper and the
// Preventer). The paper splits QEMU-side from kernel-side changes; our
// analogue is internal/core (policy) vs the hostmm mechanisms it drives.
func Table1(o Options) *Report {
	rep := &Report{
		ID:        "tab1",
		Title:     "Lines of code of VSwapper (Table 1)",
		PaperNote: "Mapper 409 (174 user + 235 kernel), Preventer 1974 (10 user + 1964 kernel), total 2383",
	}
	count := func(src embed.FS, name string) int {
		data, err := src.ReadFile(name)
		if err != nil {
			panic("experiment: " + err.Error()) // the names are embedded at build time
		}
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			if s := strings.TrimSpace(line); s != "" && !strings.HasPrefix(s, "//") {
				n++
			}
		}
		return n
	}
	mapperPolicy := count(core.Source, "mapper.go")
	preventerPolicy := count(core.Source, "preventer.go")
	mapperMech := count(hostmm.Source, "mmap.go")
	tab := &Table{
		Title:   "non-comment lines of Go",
		Columns: []string{"component", "policy (core)", "mechanism (hostmm)", "sum"},
	}
	tab.Add("Mapper", fmt.Sprintf("%d", mapperPolicy), fmt.Sprintf("%d", mapperMech),
		fmt.Sprintf("%d", mapperPolicy+mapperMech))
	tab.Add("Preventer", fmt.Sprintf("%d", preventerPolicy), "-", fmt.Sprintf("%d", preventerPolicy))
	tab.Add("sum", "", "", fmt.Sprintf("%d", mapperPolicy+mapperMech+preventerPolicy))
	rep.Tables = append(rep.Tables, tab)
	return rep
}

// Table2 reproduces the VMware Workstation observation: with the balloon
// disabled, a 1 GB sequential read inside a 440 MB guest (min 350 MB
// reserved, 512 MB host) triples its runtime with massive swap traffic.
func Table2(o Options) *Report {
	o = o.normalized()
	rep := &Report{
		ID:        "tab2",
		Title:     "1GB sequential read, balloon enabled vs disabled (Table 2)",
		PaperNote: "VMware Workstation: 25s/78s runtime, ~0.26M/1.05M swap sectors each way, 3.7K/16.5K major faults; KVM+vswapper: 12s",
	}
	tab := &Table{
		Columns: []string{"config", "runtime [sec]", "swap read sectors", "swap write sectors", "major faults"},
	}
	// The guest may use 440 MB but only ~350 MB is guaranteed under host
	// pressure — model the pressured steady state.
	run := func(name string, scheme scenario.Scheme) {
		out := rep.keep(runSingle(runCfg{
			opts: o, scheme: scheme,
			guestMB:  440,
			actualMB: 352,
			hostMB:   2048,
			warmup:   true,
		}, func(vm *hyper.VM, p *sim.Proc) *workload.Job {
			return workload.SeqRead(vm, workload.SeqReadConfig{FileMB: o.mb(1024), FileName: "bigfile"})
		}))
		tab.Add(name,
			runtimeSecs(out),
			out.show("%d", out.met[metrics.SwapReadSectors]),
			out.show("%d", out.met[metrics.SwapWriteSectors]),
			out.show("%d", out.met[metrics.HostMajorFaults]))
	}
	run("balloon enabled", scenario.BalloonBase)
	run("balloon disabled", scenario.Baseline)
	run("vswapper (KVM)", scenario.VSwapper)
	rep.Tables = append(rep.Tables, tab)
	return rep
}
