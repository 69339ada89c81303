//go:build race

package workload

// raceEnabled gates the allocation pins: the race detector's
// instrumentation changes what escapes, so they hold only without it.
const raceEnabled = true
