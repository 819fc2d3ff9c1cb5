package main

import (
	"encoding/json"
	"runtime"

	"vswapsim/internal/metrics"
)

// simCounts maps per-layer count metrics onto the simulator's counter
// names. The values are simulated, hence deterministic: they are summed
// over every run report in the sample's miss documents, and a change
// that only speeds the simulator up must leave them unchanged.
var simCounts = []struct {
	name, counter string
	scale         float64
}{
	{"guest.faults_major", metrics.GuestMajorFaults, 1},
	{"guest.swap_out_pages", metrics.GuestSwapOuts, 1},
	{"hostmm.faults_minor", metrics.HostMinorFaults, 1},
	{"hostmm.faults_major", metrics.HostMajorFaults, 1},
	{"hostmm.reclaim_scanned", metrics.HostPagesScanned, 1},
	{"core.mapper_assoc", metrics.MapperEstablish, 1},
	{"core.preventer_remaps", metrics.PreventerRemaps, 1},
	{"patho.silent_writes", metrics.SilentSwapWrites, 1},
	{"disk.ops", metrics.DiskOps, 1},
	{"disk.busy_s", metrics.DiskBusy, 1e-9},
	{"swapback.read_ops", metrics.SwapbackReadOps, 1},
	{"swapback.write_ops", metrics.SwapbackWriteOps, 1},
	{"cluster.units", metrics.ClusterUnits, 1},
	{"cluster.migrations", metrics.ClusterMigrations, 1},
	{"cluster.kills", metrics.ClusterKills, 1},
}

// simRatios are useful outcomes over attempts, from the same counters.
// Prefetch hits count swap and file readahead alike, so the prefetch
// yield divides by both kinds of prefetched pages.
var simRatios = []struct {
	name, num string
	den       []string
}{
	{"hostmm.reclaim_yield", metrics.HostPagesReclaimed, []string{metrics.HostPagesScanned}},
	{"hostmm.prefetch_yield", metrics.HostPrefetchHits, []string{metrics.HostSwapPrefetched, metrics.HostFilePrefetched}},
}

// counterTotals sums every run report's counters over the documents.
func counterTotals(docs [][]byte) (map[string]int64, error) {
	var d struct {
		Experiments []struct {
			Runs []struct {
				Report struct {
					Counters map[string]int64 `json:"counters"`
				} `json:"report"`
			} `json:"runs"`
		} `json:"experiments"`
	}
	total := make(map[string]int64)
	for _, doc := range docs {
		d.Experiments = nil
		if err := json.Unmarshal(doc, &d); err != nil {
			return nil, err
		}
		for _, e := range d.Experiments {
			for _, r := range e.Runs {
				for k, v := range r.Report.Counters {
					total[k] += v
				}
			}
		}
	}
	return total, nil
}

// traceSample turns a profiled sample's raw measurements into its
// per-layer numbers.
func traceSample(profile string, ms0, ms1 *runtime.MemStats, misses []outcome, spans *spanLog, prom promCounts) (*sampleTraced, error) {
	cpu, err := moduleCPU(profile)
	if err != nil {
		return nil, err
	}
	tr := &sampleTraced{
		CPUMS:       cpu,
		GCCount:     float64(ms1.NumGC - ms0.NumGC),
		GCPauseMS:   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		Counts:      make(map[string]float64),
		CacheWrites: prom.writes,
	}
	if prom.hits+prom.misses > 0 {
		tr.HitRatio = prom.hits / (prom.hits + prom.misses)
	}
	var docs [][]byte
	spans.mu.Lock()
	for _, o := range misses {
		docs = append(docs, o.doc)
		sp, ok := spans.spans[keyOf(o.job.req)]
		if !ok {
			continue
		}
		tr.QueueWaitMS = append(tr.QueueWaitMS, ms(sp.start.Sub(o.submitted).Nanoseconds()))
		tr.RunMS = append(tr.RunMS, ms(sp.end.Sub(sp.start).Nanoseconds()))
		tr.FinishMS = append(tr.FinishMS, ms(o.done.Sub(sp.end).Nanoseconds()))
	}
	spans.mu.Unlock()
	totals, err := counterTotals(docs)
	if err != nil {
		return nil, err
	}
	for _, c := range simCounts {
		tr.Counts[c.name] = float64(totals[c.counter]) * c.scale
	}
	for _, r := range simRatios {
		var den int64
		for _, d := range r.den {
			den += totals[d]
		}
		tr.Counts[r.name] = 0
		if den > 0 {
			tr.Counts[r.name] = float64(totals[r.num]) / float64(den)
		}
	}
	return tr, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// perLayer aggregates a traced run. Each bucket's CPU is its share of
// the CPU profiled over all profiled samples, in percent, so the buckets
// sum to 100 % of profiled.cpu_ms (the mean per sample); counts and
// gauges are medians over those samples; spans are medians over all their
// misses; probes come from the one sample that ran them. Hit and miss
// latencies are quantiles over the jobs of the untraced samples (hit
// latencies read 0 on a workload without hits).
func perLayer(plain, traced []*sampleRun) []metric {
	var out []metric
	buckets := append(append([]string(nil), modules...), "harness", "runtime")
	sums := make([]float64, len(buckets))
	var total float64
	for i, b := range buckets {
		for _, s := range traced {
			sums[i] += s.res.Trace.CPUMS[b]
		}
		total += sums[i]
	}
	for i, b := range buckets {
		share := 0.0
		if total > 0 {
			share = 100 * sums[i] / total
		}
		out = append(out, metric{b + ".cpu_pct", share, "%"})
	}
	out = append(out, metric{"profiled.cpu_ms", total / float64(len(traced)), "ms"})

	med := func(f func(*sampleTraced) float64) float64 {
		var xs []float64
		for _, s := range traced {
			xs = append(xs, f(s.res.Trace))
		}
		return quantile(xs, 0.5)
	}
	pooled := func(f func(*sampleTraced) []float64) float64 {
		var xs []float64
		for _, s := range traced {
			xs = append(xs, f(s.res.Trace)...)
		}
		return quantile(xs, 0.5)
	}
	out = append(out,
		metric{"runtime.gc_count", med(func(t *sampleTraced) float64 { return t.GCCount }), "count"},
		metric{"runtime.gc_pause_ms", med(func(t *sampleTraced) float64 { return t.GCPauseMS }), "ms"},
	)
	for _, c := range simCounts {
		name := c.name
		unit := "count"
		if c.scale != 1 {
			unit = "sim_s" // simulated seconds, deterministic like the counts
		}
		out = append(out, metric{name, med(func(t *sampleTraced) float64 { return t.Counts[name] }), unit})
	}
	for _, r := range simRatios {
		name := r.name
		out = append(out, metric{name, med(func(t *sampleTraced) float64 { return t.Counts[name] }), "ratio"})
	}
	var hits, misses []float64
	for _, s := range plain {
		hits = append(hits, s.res.HitMS...)
		misses = append(misses, s.res.MissMS...)
	}
	out = append(out,
		metric{"serve.hit_p50_ms", quantile(hits, 0.5), "ms"},
		metric{"serve.hit_p99_ms", quantile(hits, 0.99), "ms"},
		metric{"serve.miss_p50_ms", quantile(misses, 0.5), "ms"},
		metric{"serve.miss_p90_ms", quantile(misses, 0.9), "ms"},
		metric{"serve.queue_wait_ms", pooled(func(t *sampleTraced) []float64 { return t.QueueWaitMS }), "ms"},
		metric{"serve.run_ms", pooled(func(t *sampleTraced) []float64 { return t.RunMS }), "ms"},
		metric{"serve.finish_ms", pooled(func(t *sampleTraced) []float64 { return t.FinishMS }), "ms"},
		metric{"serve.hit_ratio", med(func(t *sampleTraced) float64 { return t.HitRatio }), "ratio"},
		metric{"serve.cache_writes", med(func(t *sampleTraced) float64 { return t.CacheWrites }), "count"},
	)
	for _, s := range traced {
		if s.res.Trace.Probes == nil {
			continue
		}
		for _, p := range probeMetrics {
			a := allocsName(p.name)
			out = append(out, metric{p.name, s.res.Trace.Probes[p.name], p.unit},
				metric{a, s.res.Trace.Probes[a], "allocs/op"})
		}
		break
	}
	var pw, tw []float64
	for _, s := range plain {
		pw = append(pw, s.res.WallS)
	}
	for _, s := range traced {
		tw = append(tw, s.res.WallS)
	}
	out = append(out,
		metric{"trace_overhead", quantile(tw, 0.5)/quantile(pw, 0.5) - 1, "ratio"},
		metric{"reference_ms", 1e3 * median(plain, func(s *sampleRun) float64 { return s.res.RefS }), "ms"},
	)
	return out
}
