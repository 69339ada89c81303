# Every target here is exactly what CI runs, so a green `make lint`
# locally implies a green lint column in CI and vice versa.

GO ?= go
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race allocs flake fuzz bench-check lint lint-tools fmt-check vet nexusvet staticcheck govulncheck

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs the allocation pins without the race detector, whose
# instrumentation changes what escapes: the zero-allocation pins on
# sim.Engine / sim.Server, the allocations-per-task budget on core.Run and
# its run-loop marginal pin (allocations per extra task between Gaussian
# N = 40 and N = 80: at most 0.1 with the safe guard, 0.2 with renaming,
# whose Task Pool entries keep their version tags), the generator pin (one
# pass of every workload's Next within Total()/64 allocations, parameters
# off a slab), the
# service's codec pins (every message shape the client and server send,
# an await response carrying a skipped task's real error among them, is
# read by the compact reader, not the encoding/json fallback: nothing
# allocated decoding a request on a kept decoder, one exact-size slice per
# response) and its submit-
# and await-handler pins (an await of finished tasks arms no timer), which
# skip under -race, the window's park pin (a submitter parked on a full
# window and granted reuses its waiter, its channel and the list's storage:
# nothing allocated), and the
# runtime's admission pins — two allocations per Submit, a chunk of one that
# takes a node of its own, and two per SubmitAll or TrySubmitAll chunk of up
# to 256 tasks, whose node block a drained chunk left on the free list — on
# the Runtime and through a Scope, and the bytes of such a chunk: its 32-byte
# handles and the handle slice, 256 × (32 + 8) B plus the allocator's slack
# (TestSubmitAllBytes, read off runtime.MemStats with the collector off).
allocs:
	$(GO) test ./internal/sim ./internal/mem ./internal/core ./internal/workload ./internal/service ./internal/starss

# flake hammers the tests whose outcome depends on who wins a race between
# a finishing task and its submitter — poisoning, panics, the window, scope
# accounting, the maestro funnel's shutdown, WaitOn's
# empty task, Close shutting the window on parked submitters,
# the kick-off lists threaded through waiting tasks, key identity and
# namespace isolation with concurrent scopes, the ready queue's parked-worker
# wake-ups and the successor a finishing worker keeps for itself
# (Ready|Successor), what a finished task, a kept handle and a drained chunk
# leave reachable of a SubmitAll chunk's blocks (Retention), a task
# finishing, its node cleared, before the call that admitted it returns
# (FinishesBefore), a drained node block going back to the free list and out
# to the next chunk (NodeBlock), and a second pass over a graph filing its
# segments off the bank free lists (SegmentReuse), and a handle publishing
# its end — one pointer swap to a shared ok cell or a cell of its own —
# against Done, Wait, Err and Outcome callers (Handle), and Handle Finished's
# one order — clear the node, publish the handle, release the segments,
# return the token — against a WaitOn admitted mid-finish and a caller
# reusing Deps once Wait returns (WaitOn, Handle), and concurrent
# submitters of one namespace, the runtime's and a Scope's, whose chunks
# cross two banks in opposite orders, checked for deadlock and against the
# dependency graph in index order (Chunk), finishers giving up segments with
# one compare-and-swap and no bank lock while Check Deps joins, queues on and
# restarts them, checked against the dependency graph; a retired segment's
# poison dying with its last holder; and the idle sweep that leaves no
# retired segment filed once Wait returns (Retire), and parked submitters
# cancelled while a release grants them (Window) — twenty times under
# the race detector. The second line
# does the same for the service's admission:
# a submit is refused or admitted by a tryAcquire on two windows (the shared
# one, then the session's) racing the finishers' releases, a submit
# sweeps the session's finished tasks while others finish (Sweep|Swept), and
# the janitor reads a session's idle clock while finishing tasks write it
# (Expiry: TestServiceSessionExpiry, TestServiceSessionExpiryRace).
flake:
	$(GO) test -race -count=20 -run 'Poison|Panic|Window|Scope|FailureDrains|Maestro|Close|WaitOn|Kickoff|Key|SameName|Ready|Successor|Retention|FinishesBefore|NodeBlock|SegmentReuse|Handle|Chunk|Retire' ./internal/starss/
	$(GO) test -race -count=20 -run 'Backpressure|OverloadShed|NeverBlocks|TokensSettled|Sweep|Swept|Expiry' ./internal/service/

# fuzz gives every fuzz target twenty seconds. `go test -list` finds the
# targets, printing each package's names before its "ok" line, so a new one
# needs no entry here. Today three are the service's wire: the codec's
# values and verdicts against encoding/json, round trips, and the real handler, which may
# answer hostile bytes with nothing but a typed 4xx. The fourth drives the
# runtime's dependence table beside a map model, with keys in several
# namespaces and hashes the input degrades until everything collides. The
# fifth replays one access sequence without pure writers on the simulator's
# Dependence Table with renaming off and on, which must agree on everything
# but the chain walk Handle Finished skips under renaming.
# (`go test ./...` already runs their seed corpora.)
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || exit 1; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg t; do \
		echo "fuzz $$pkg $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime=20s $$pkg || exit 1; \
	done

# bench-check vets and tests the nested benchmark module. Root `go test
# ./...` does not descend into it, so without this an internal/ change that
# breaks what bench/ compiles against only shows when the benchmark runs.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# lint is the full static gate: formatting, stock vet, the project's own
# nexusvet invariant suite, then staticcheck and govulncheck.
lint: fmt-check vet nexusvet staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# nexusvet statically enforces the runtime's concurrency invariants (see
# DESIGN.md "Statically enforced invariants"). It runs through go vet's
# -vettool protocol so package loading, in-package test files and build
# caching behave exactly as for any stock vet check.
nexusvet:
	$(GO) build -o bin/nexusvet ./cmd/nexusvet
	$(GO) vet -vettool=$(CURDIR)/bin/nexusvet ./...

# staticcheck and govulncheck are pinned via lint-tools in CI; locally
# they are gated on the binary being present so `make lint` still works
# on a machine without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins it at $(STATICCHECK_VERSION) via make lint-tools)"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins it at $(GOVULNCHECK_VERSION) via make lint-tools)"; fi

# lint-tools installs the pinned external linters; the versions above are
# the single source of truth for both CI and local installs.
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
