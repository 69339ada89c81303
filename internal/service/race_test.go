//go:build race

package service

// raceEnabled gates the allocation pins: the race detector's
// instrumentation changes what escapes, so they hold only without it.
const raceEnabled = true
