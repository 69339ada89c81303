package backend

import (
	"strings"
	"testing"
)

// TestLookupWorkloadUnknownListsSortedNames pins the exact failure message:
// an unknown workload name must enumerate every valid name in sorted order,
// so the message is deterministic across runs.
func TestLookupWorkloadUnknownListsSortedNames(t *testing.T) {
	_, err := LookupWorkload("no-such-workload")
	if err == nil {
		t.Fatal("lookup of an unknown workload succeeded")
	}
	var names []string
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	want := `backend: unknown workload "no-such-workload" (valid: ` + strings.Join(names, ", ") + ")"
	if got := err.Error(); got != want {
		t.Errorf("error message drifted:\n got: %s\nwant: %s", got, want)
	}
	for _, must := range []string{"starpu_deps", "randdag", "skewed", "wavefront"} {
		if !strings.Contains(err.Error(), must) {
			t.Errorf("error message does not list registered workload %q: %s", must, err)
		}
	}
	// Repeated lookups must render the identical message.
	for i := 0; i < 16; i++ {
		_, again := LookupWorkload("no-such-workload")
		if again.Error() != want {
			t.Fatalf("error message is nondeterministic:\n%s\nvs\n%s", again, want)
		}
	}
}
