package starss

import (
	"sync/atomic"
	"testing"
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
