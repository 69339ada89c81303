// Package chaos is the scenario runner behind `nexusbench chaos`: it
// executes irregular workloads under seeded faults and verifies, after
// every run, the invariants the paper's hardware gets for free and the
// software service must earn — counters balance, the skipped set matches
// the dependency-graph oracle, no window wedges, and no goroutine leaks.
//
// The package owns its faults (inject.go): task bodies consult decide, a
// pure function of (seed, site, key), and the wire scenarios install a
// client transport that duplicates requests or drops responses on a fixed
// period. Nothing outside this package has a fault hook.
//
// Every scenario is deterministic per seed: workload structure is seeded,
// and each report carries a fingerprint over the deterministic observables
// so CI can run a scenario twice and assert bit-equal outcomes.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"
)

// Report is one scenario run's outcome. Fingerprint covers only the
// deterministic observables (task outcome counts, oracle sets, fault
// decisions) — wall-clock and retry timing are excluded.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Tasks    int    `json:"tasks"`
	Executed uint64 `json:"executed"`
	Failed   uint64 `json:"failed"`
	Skipped  uint64 `json:"skipped"`
	Retried  uint64 `json:"retried,omitempty"`
	// Faults is the count of faults the scenario injected, under its site's
	// name (task_error, task_panic, task_hang, req_dup, resp_drop).
	Faults map[string]uint64 `json:"faults,omitempty"`
	// ClientRetries counts client-side retry rounds (SubmitWait), where the
	// scenario exercises them. Timing-dependent sites make this
	// informational, not fingerprinted, unless the scenario is sequential.
	ClientRetries int `json:"client_retries,omitempty"`
	// Shed counts submits rejected by the overload shed (503).
	Shed int `json:"shed,omitempty"`
	// Deduped counts submits answered from the idempotency window.
	Deduped int `json:"deduped,omitempty"`
	// Fingerprint digests the deterministic observables.
	Fingerprint string `json:"fingerprint"`
	// WallMS is informational only.
	WallMS float64 `json:"wall_ms"`
}

// fingerprint folds the given observables into a stable hex digest.
func fingerprint(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// injected is a scenario's Report.Faults: its one site's count, or nil
// when nothing fired.
func injected(site string, n uint64) map[string]uint64 {
	if n == 0 {
		return nil
	}
	return map[string]uint64{site: n}
}

// faultLine renders a site's count for a fingerprint: "site=n,", or ""
// when nothing fired.
func faultLine(site string, n uint64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%s=%d,", site, n)
}

// scenario is one named chaos experiment.
type scenario struct {
	name string
	run  func(ctx context.Context, seed uint64) (*Report, error)
}

// scenarios returns the registry in canonical order.
func scenarios() []scenario {
	return []scenario{
		{"task_panic", runTaskPanic},
		{"task_hang_deadline", runTaskHangDeadline},
		{"retry_recovers", runRetryRecovers},
		{"dup_submit", runDupSubmit},
		{"dropped_response", runDroppedResponse},
		{"session_expiry", runSessionExpiry},
		{"overload_shed", runOverloadShed},
	}
}

// Names lists every scenario in canonical order.
func Names() []string {
	sc := scenarios()
	names := make([]string, len(sc))
	for i, s := range sc {
		names[i] = s.name
	}
	return names
}

// Run executes one scenario under the given seed, enforcing the shared
// invariants (goroutine-leak-free shutdown on top of each scenario's own
// checks), and returns its report.
func Run(ctx context.Context, name string, seed uint64) (*Report, error) {
	for _, s := range scenarios() {
		if s.name != name {
			continue
		}
		baseline := runtime.NumGoroutine()
		start := time.Now()
		rep, err := s.run(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("chaos %s(seed=%d): %w", name, seed, err)
		}
		if err := waitGoroutines(baseline + goroutineSlack); err != nil {
			return nil, fmt.Errorf("chaos %s(seed=%d): %w", name, seed, err)
		}
		rep.Scenario = name
		rep.Seed = seed
		rep.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		return rep, nil
	}
	return nil, fmt.Errorf("chaos: unknown scenario %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// goroutineSlack tolerates runtime-internal goroutines (finalizers, timer
// wheels, lingering HTTP keep-alive closers) that come and go around a
// scenario.
const goroutineSlack = 6

// waitGoroutines polls until the process goroutine count returns to at most
// limit — the leak check every scenario must pass after closing its server
// and runtime.
func waitGoroutines(limit int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d live, want <= %d", n, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
