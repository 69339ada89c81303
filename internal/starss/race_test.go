//go:build race

package starss

// raceEnabled gates the byte pins: the race detector's instrumentation
// changes what escapes, so they hold only without it.
const raceEnabled = true
