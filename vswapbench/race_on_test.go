//go:build race

package main

// raceEnabled reports a build with the race detector, whose runtime frames
// the CPU profiler cannot unwind to their Go callers.
const raceEnabled = true
