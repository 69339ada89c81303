// Package faults is the deterministic, seeded fault-injection framework
// behind `nexusbench chaos`. The paper's hardware task manager assumes a
// reliable fabric — the Dependence Table never loses an entry, kick-off
// lists always drain, task IDs are never duplicated — but the software
// service reproducing it runs on a fabric where task bodies panic, clients
// retry, and requests vanish mid-flight. This package makes those failures
// injectable at task bodies and the HTTP wire so the recovery paths can be
// exercised deterministically.
//
// Design rules, in priority order:
//
//   - Off means free. A nil *Injector disables everything; every injection
//     point pays exactly one nil check, the same discipline internal/obs
//     uses for the event stream.
//   - Deterministic per seed. Decisions are pure functions of (seed, site,
//     key) — a hash, not a stateful PRNG — so a fault schedule is
//     reproducible regardless of goroutine interleaving as long as the
//     keys are (task indices are; per-site sequence numbers are under a
//     sequential caller).
//   - Observable. Every fired injection is counted per site, so a chaos
//     scenario can assert that the faults it planned actually happened.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site is one fault-injection point. The task sites are numbered 0–2, and
// decide hashes the number, so renumbering them changes every
// probability-keyed schedule.
type Site uint8

const (
	// SiteTaskError makes a task body return an injected error instead of
	// running — the software analogue of a worker core signalling failure.
	SiteTaskError Site = iota
	// SiteTaskPanic makes a task body panic; the runtime recovers it into
	// ErrTaskPanicked and poisons dependents like any failure.
	SiteTaskPanic
	// SiteTaskHang makes a task body block until its context is cancelled —
	// the stuck-worker case that a body's deadline exists to bound.
	SiteTaskHang
	// SiteReqDup sends a client request twice; the duplicate's response is
	// discarded. Exercises server-side idempotent submission.
	SiteReqDup
	// SiteRespDrop drops a response after the server has fully processed
	// the request — the case where a retried POST would double-execute
	// without idempotency keys.
	SiteRespDrop
	numSites
)

var siteNames = [numSites]string{
	"task_error", "task_panic", "task_hang", "req_dup", "resp_drop",
}

// String returns the site's name (e.g. "task_error"), the key Counts
// reports it under.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ErrInjected is the root of every fault this package injects; test
// assertions and retry policies match it with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// Rule arms one site. Exactly one of Prob and Every selects the firing
// discipline: Prob fires when the (seed, site, key) hash lands below the
// probability — deterministic per key, independent across keys — and Every
// fires on every Every-th decision at the site (key % Every == 0), the
// right tool for sequence-keyed wire faults ("drop every 4th response").
type Rule struct {
	Site Site
	// Prob is the per-decision firing probability in [0, 1].
	Prob float64
	// Every fires the rule when key%Every == 0; it takes precedence over
	// Prob when nonzero.
	Every uint64
}

// Plan is a seed plus the armed rules — one reproducible fault schedule.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// compiled is one site's armed state inside an Injector.
type compiled struct {
	armed bool
	prob  float64
	every uint64
}

// Injector decides, deterministically per seed, whether a fault fires at a
// given site for a given key. The zero of the type is never used: a nil
// *Injector is the disabled state and every method is nil-safe.
type Injector struct {
	seed  uint64
	rules [numSites]compiled
	fired [numSites]atomic.Uint64
	seq   [numSites]atomic.Uint64
}

// New compiles a plan into an injector. A nil plan or an empty rule set
// returns nil — the disabled injector.
func New(plan *Plan) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	in := &Injector{seed: plan.Seed}
	for _, r := range plan.Rules {
		if int(r.Site) >= int(numSites) {
			continue
		}
		in.rules[r.Site] = compiled{armed: true, prob: r.Prob, every: r.Every}
	}
	return in
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// decide is the pure decision function: true when the site's rule fires for
// key under the injector's seed.
func (in *Injector) decide(site Site, key uint64) bool {
	r := &in.rules[site]
	if !r.armed {
		return false
	}
	if r.every > 0 {
		return key%r.every == 0
	}
	if r.prob <= 0 {
		return false
	}
	if r.prob >= 1 {
		return true
	}
	h := splitmix64(in.seed ^ (uint64(site)+1)*0x9e3779b97f4a7c15 ^ splitmix64(key))
	return float64(h>>11)/(1<<53) < r.prob
}

// TaskKey derives the decision key for one execution attempt of one task,
// mixing the attempt in so a retried task re-rolls its fate independently.
func TaskKey(index uint64, attempt int) uint64 {
	return splitmix64(index*2654435761 + uint64(attempt))
}

// Should reports whether the site's rule fires for key, counting the hit.
// Nil-safe: a nil injector never fires.
func (in *Injector) Should(site Site, key uint64) bool {
	if in == nil {
		return false
	}
	if !in.decide(site, key) {
		return false
	}
	in.fired[site].Add(1)
	return true
}

// Peek is Should without the side effects: the pure decision, not counted.
// Chaos oracles use it to predict the schedule an identical injector
// produced. Nil-safe.
func (in *Injector) Peek(site Site, key uint64) bool {
	if in == nil {
		return false
	}
	return in.decide(site, key)
}

// ShouldSeq is Should keyed by the site's own call sequence number — the
// discipline for wire sites, where there is no task index. Deterministic
// when the site's callers are sequential. Nil-safe.
func (in *Injector) ShouldSeq(site Site) bool {
	if in == nil {
		return false
	}
	return in.Should(site, in.seq[site].Add(1)-1)
}

// Fired returns the number of times the site's rule has fired. Nil-safe.
func (in *Injector) Fired(site Site) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[site].Load()
}

// Counts maps the name of every site that has fired to its count — the
// chaos report's injected-fault summary. Nil-safe.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil {
		return nil
	}
	m := make(map[string]uint64)
	for s := Site(0); s < numSites; s++ {
		if n := in.fired[s].Load(); n > 0 {
			m[s.String()] = n
		}
	}
	return m
}
