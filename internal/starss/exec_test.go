package starss

import (
	"sync/atomic"
	"testing"
	"time"

	"nexuspp/internal/faults"
)

// TestRetryRearmsBeforePoison is the ordering guarantee a Retry body keeps:
// it reruns on the worker before Handle Finished, so a task that recovers
// on a later attempt never poisoned its dependents in between. The
// dependent shares the failing task's key, so if a failed attempt reached
// the finished path it would be skipped.
func TestRetryRearmsBeforePoison(t *testing.T) {
	rt := New(Config{Workers: 2})
	var calls atomic.Int64
	var depRan atomic.Bool
	rt.MustSubmit(Task{
		Deps: []Dep{Out(addrChain)},
		Do:   Retry(failNTimes(2, &calls), 2, nil),
	})
	dep := rt.MustSubmit(Task{
		Deps: []Dep{In(addrChain)},
		Do:   do(func() { depRan.Store(true) }),
	})
	mustClose(t, rt)
	if err := dep.Err(); err != nil {
		t.Fatalf("dependent err = %v, want nil (producer recovered)", err)
	}
	if !depRan.Load() {
		t.Error("dependent never ran")
	}
	if st := rt.Stats(); st.Skipped != 0 || st.Executed != 2 {
		t.Errorf("stats = %+v, want executed=2 skipped=0", st)
	}
}

// TestKickoffDelayInjection: a kickoff_delay rule stalls dispatch but never
// changes outcomes.
func TestKickoffDelayInjection(t *testing.T) {
	in := faults.New(&faults.Plan{Seed: 2, Rules: []faults.Rule{
		{Site: faults.SiteKickoffDelay, Every: 2, Delay: time.Millisecond},
	}})
	rt := New(Config{Workers: 4, Faults: in})
	var ran atomic.Int64
	for i := 0; i < 16; i++ {
		rt.MustSubmit(Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() { ran.Add(1) })})
	}
	mustClose(t, rt)
	if ran.Load() != 16 {
		t.Errorf("ran %d of 16", ran.Load())
	}
	if in.Fired(faults.SiteKickoffDelay) == 0 {
		t.Error("kickoff_delay never fired with every=2 over 16 tasks")
	}
}
