//go:build !race

package starss

const raceEnabled = false
