package core

import (
	"testing"

	"nexuspp/internal/sim"
)

// linearPick is the Send TDs request selection as the block used to run it:
// scan every core from the round-robin pointer, wrapping, and stop at the
// first whose CiRdyTasks list is non-empty and whose controller can
// receive. It is the reference the indexed pick must agree with.
func linearPick(nonEmpty, canReceive []bool, rrPtr int) int {
	n := len(nonEmpty)
	for i := 0; i < n; i++ {
		c := (rrPtr + i) % n
		if nonEmpty[c] && canReceive[c] {
			return c
		}
	}
	return -1
}

func TestSendTDsPickMatchesLinearScan(t *testing.T) {
	rng := sim.NewRand(0x5e11d)
	// 63/64/65 straddle a bitset word; 256 and 300 span several, 300 with a
	// partial last word.
	for _, workers := range []int{1, 2, 63, 64, 65, 256, 300} {
		nonEmpty := make([]bool, workers)
		canReceive := make([]bool, workers)
		ok := func(core int) bool { return canReceive[core] }
		// Densities from "almost nothing set" (long walks across empty
		// words, frequent -1) to "almost everything set".
		for _, density := range []float64{0.02, 0.3, 0.9} {
			for trial := 0; trial < 400; trial++ {
				set := newCoreSet(workers)
				for c := 0; c < workers; c++ {
					nonEmpty[c] = rng.Float64() < density
					canReceive[c] = rng.Float64() < 0.7
					if nonEmpty[c] {
						set.add(c)
					}
				}
				// Every start position, so each wrap-around point and word
				// boundary is a round-robin pointer at least once.
				for rrPtr := 0; rrPtr < workers; rrPtr++ {
					want := linearPick(nonEmpty, canReceive, rrPtr)
					if got := set.pickFrom(rrPtr, ok); got != want {
						t.Fatalf("workers=%d rrPtr=%d: indexed pick %d, linear scan %d\nnonEmpty   %v\ncanReceive %v",
							workers, rrPtr, got, want, nonEmpty, canReceive)
					}
				}
			}
		}
	}
}

func TestCoreSetRemove(t *testing.T) {
	set := newCoreSet(130)
	for _, c := range []int{0, 63, 64, 129} {
		set.add(c)
	}
	set.remove(63)
	set.remove(129)
	var got []int
	for c := set.next(0); c >= 0; c = set.next(c + 1) {
		got = append(got, c)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 64 {
		t.Fatalf("members after remove = %v, want [0 64]", got)
	}
	if c := set.next(130); c != -1 {
		t.Fatalf("next past the last core = %d, want -1", c)
	}
}
