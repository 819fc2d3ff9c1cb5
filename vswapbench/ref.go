package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// The host the benchmark was written on, a 2-core VM, changes speed
// under the program for minutes at a time as other tenants' load comes
// and goes, with no steal time: over six minutes the lower quartile of
// identical fig5 samples fell from 1.43 s to 0.85 s, and twenty minutes
// later the median of ten runs was 38 % above that of ten earlier ones.
// No statistic over one run's samples removes that. So each sample also
// times a reference, a fixed loop that shares no code with the program,
// right after its jobs, on the same process and thread; the end-to-end
// times are reported at the host speed where the reference takes
// refNominal, that is, scaled by refNominal ÷ the run's median reference.
// Over those six minutes the scaled median held within 0.07 (spread),
// and the reference tracked the run medians with correlation 0.97.
//
// The reference is goroutine handoff through unbuffered channels on one
// P with the collector off, so it neither allocates nor depends on the
// program's heap. Of the loops tried it tracked the samples best, beside
// map lookups and integer arithmetic.
const refNominal = 10 * time.Millisecond

// refHandoffs is the number of round trips one reference round makes.
const refHandoffs = 20000

// hostRef times five rounds of the reference and returns the median, in
// seconds.
func hostRef() float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rounds := make([]float64, 5)
	for i := range rounds {
		ping, pong := make(chan int), make(chan int)
		go func() {
			for v := range ping {
				pong <- v
			}
		}()
		start := time.Now()
		for j := 0; j < refHandoffs; j++ {
			ping <- j
			<-pong
		}
		rounds[i] = time.Since(start).Seconds()
		close(ping)
	}
	return quantile(rounds, 0.5)
}
