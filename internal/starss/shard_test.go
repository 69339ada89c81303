package starss

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexuspp/internal/sim"
	"nexuspp/internal/workload"
)

// Tests for the sharded dependency-resolution banks and the batch
// submission API.

// TestShardsRoundedToPowerOfTwo pins the derived bank count — four banks a
// worker within [64, 512], rounded up to a power of two — and the maestro's
// single bank.
func TestShardsRoundedToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{1, 64}, {2, 64}, {16, 64}, {17, 128}, {32, 128}, {33, 256}, {100, 512}, {200, 512},
	} {
		if got := banksFor(tc.workers); got != tc.want {
			t.Errorf("banksFor(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
	rt := New(Config{Workers: 17})
	if got := len(rt.banks); got != 128 {
		t.Errorf("New with 17 workers has %d banks, want 128", got)
	}
	mustClose(t, rt)
	rt = NewMaestro(Config{Workers: 4})
	if got := len(rt.banks); got != 1 {
		t.Errorf("NewMaestro has %d banks, want 1", got)
	}
	mustClose(t, rt)
}

func TestSingleShardPreservesSemantics(t *testing.T) {
	// One bank is one lock every caller takes itself; the full ordering
	// semantics must hold there too.
	rt := newRuntime(Config{Workers: 8}, 1, nil)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		i := i
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(addrChain)},
			Do: do(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}),
		})
	}
	mustClose(t, rt)
	for i, v := range order {
		if v != i {
			t.Fatalf("chain order broken at %d: %v", i, order[:i+1])
		}
	}
}

// TestMultiKeyTasksAcrossBanks stresses tasks whose keys hash to several
// banks at once: the sorted bank-acquisition order must neither deadlock
// nor break hazard exclusion. Two banks with many keys guarantees
// cross-bank key sets. The tasks come from three namespaces, so one bank
// files the same address three times.
func TestMultiKeyTasksAcrossBanks(t *testing.T) {
	for _, banks := range []int{1, 2, 8} {
		rt := newRuntime(Config{Workers: 8, Window: 128}, banks, nil)
		h := newHazardChecker()
		subs, nss := namespaces(rt)
		rng := sim.NewRand(11)
		for i := 0; i < 400; i++ {
			var deps []Dep
			used := map[int]bool{}
			for k := 0; k <= 2+rng.Intn(3); k++ { // 3..5 keys per task
				key := rng.Intn(16)
				if used[key] {
					continue
				}
				used[key] = true
				deps = append(deps, Dep{uint64(key), Mode(rng.Intn(3))})
			}
			norm := normalizeDeps(deps)
			who := rng.Intn(len(subs))
			if _, err := subs[who].Submit(context.Background(), Task{
				Deps: deps,
				Do: do(func() {
					h.enter(nss[who], norm)
					defer h.exit(nss[who], norm)
					spin(100)
				}),
			}); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, rt)
		if len(h.bad) > 0 {
			t.Fatalf("banks=%d: hazard violations: %v", banks, h.bad[:min(5, len(h.bad))])
		}
		if rt.Stats().Executed != 400 {
			t.Fatalf("banks=%d: executed = %d", banks, rt.Stats().Executed)
		}
	}
}

// TestConcurrentSubmitters drives Submit from many goroutines on disjoint
// key ranges — the workload sharding exists for — under the race detector.
func TestConcurrentSubmitters(t *testing.T) {
	rt := New(Config{Workers: 8, Window: 256})
	var executed atomic.Int64
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rt.MustSubmit(Task{
					Deps: []Dep{InOut(uint64(g*perG + i)), In(uint64(g*perG + (i+1)%perG))},
					Do:   do(func() { executed.Add(1) }),
				})
			}
		}()
	}
	wg.Wait()
	mustClose(t, rt)
	if executed.Load() != goroutines*perG {
		t.Fatalf("executed %d of %d", executed.Load(), goroutines*perG)
	}
	if st := rt.Stats(); st.Submitted != goroutines*perG || st.Executed != goroutines*perG {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitAllOrdering(t *testing.T) {
	// A batch must be admitted in slice order: an InOut chain inside one
	// SubmitAll call executes sequentially in that order.
	rt := New(Config{Workers: 8})
	var order []int
	var mu sync.Mutex
	tasks := make([]Task, 64)
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Deps: []Dep{InOut(addrChain), In(uint64(i % 7))},
			Do: do(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}),
		}
	}
	if _, err := rt.SubmitAll(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	mustClose(t, rt)
	if len(order) != len(tasks) {
		t.Fatalf("ran %d of %d", len(order), len(tasks))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("batch order broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestSubmitAllLargerThanWindow(t *testing.T) {
	// Batches larger than the window are chunked, not deadlocked.
	rt := New(Config{Workers: 2, Window: 8})
	var n atomic.Int64
	tasks := make([]Task, 100)
	for i := range tasks {
		i := i
		tasks[i] = Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() { n.Add(1) })}
	}
	if _, err := rt.SubmitAll(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	mustClose(t, rt)
	if n.Load() != 100 {
		t.Fatalf("executed %d of 100", n.Load())
	}
	if got := rt.Stats().MaxInFlight; got > 8 {
		t.Fatalf("in-flight %d exceeded window 8", got)
	}
}

func TestSubmitAllValidation(t *testing.T) {
	rt := New(Config{Workers: 1})
	_, err := rt.SubmitAll(context.Background(), []Task{
		{Do: do(func() {})},
		{}, // no Run
	})
	if err == nil {
		t.Fatal("batch with an invalid task accepted")
	}
	// Validation happens before admission: nothing ran.
	rt.Wait(context.Background())
	if st := rt.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid batch partially admitted: %+v", st)
	}
	if _, err := rt.SubmitAll(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	mustClose(t, rt)
	if _, err := rt.SubmitAll(context.Background(), []Task{{Do: do(func() {})}}); err != ErrStopped {
		t.Fatalf("SubmitAll after Close = %v, want ErrStopped", err)
	}
}

func TestSubmitAllRAWAcrossBatches(t *testing.T) {
	// Dependencies straddling two SubmitAll calls and plain Submits are
	// still honoured.
	rt := New(Config{Workers: 4})
	data := make([]int, 8)
	writers := make([]Task, len(data))
	for i := range writers {
		i := i
		writers[i] = Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() { data[i] = i + 1 })}
	}
	if _, err := rt.SubmitAll(context.Background(), writers); err != nil {
		t.Fatal(err)
	}
	sum := 0
	deps := make([]Dep, len(data))
	for i := range deps {
		deps[i] = In(uint64(i))
	}
	rt.MustSubmit(Task{Deps: deps, Do: do(func() {
		for _, v := range data {
			sum += v
		}
	})})
	mustClose(t, rt)
	want := 0
	for i := range data {
		want += i + 1
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d (RAW across batch broken)", sum, want)
	}
}

// TestBankIndexStable: a key hashes the same way every time it is asked, and
// its bank is one the runtime has.
func TestBankIndexStable(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer mustClose(t, rt)
	for _, k := range []tableKey{{0, 0}, {3, 7}, {3, 1 << 63}, {^uint64(0), ^uint64(0)}} {
		h, again := rt.hashKey(k), rt.hashKey(k)
		if h != again {
			t.Fatalf("hashKey(%v) unstable: %#x vs %#x", k, h, again)
		}
		if i := rt.bankOf(h); i < 0 || int(i) >= len(rt.banks) {
			t.Fatalf("bankOf(hashKey(%v)) = %d out of range", k, i)
		}
	}
}

// TestHashKeySeeded pins what keeps a tenant from choosing its collisions:
// the hash is keyed per runtime, so one address key hashes differently on
// two of them; and the namespace is part of what is hashed, so one address
// in two scopes has two homes — over a thousand addresses the top bits
// (a 256-slot table's home) differ far more often than not. A single bank
// (a one-bank runtime, and the maestro) still hashes: the home slot needs the bits
// the bank index does not.
func TestHashKeySeeded(t *testing.T) {
	const n = 1000
	for name, rt := range map[string]*Runtime{
		"one bank": newRuntime(Config{Workers: 1}, 1, nil),
		"maestro":  NewMaestro(Config{Workers: 1}),
	} {
		other := newRuntime(Config{Workers: 1}, 1, nil)
		acrossRuntimes, acrossScopes, homes := 0, 0, map[uint64]bool{}
		for a := uint64(0); a < n; a++ {
			key := tableKey{ns: 1, addr: a << 6}
			h := rt.hashKey(key)
			if rt.bankOf(h) != 0 {
				t.Fatalf("%s: bank %d on a runtime with one", name, rt.bankOf(h))
			}
			homes[h>>56] = true
			if other.hashKey(key) != h {
				acrossRuntimes++
			}
			key.ns = 2
			if rt.hashKey(key)>>56 != h>>56 {
				acrossScopes++
			}
		}
		if acrossRuntimes < n-1 {
			t.Errorf("%s: only %d of %d keys hash differently on a second runtime", name, acrossRuntimes, n)
		}
		if acrossScopes <= n/2 {
			t.Errorf("%s: only %d of %d addresses change home with the namespace", name, acrossScopes, n)
		}
		if len(homes) < 200 {
			t.Errorf("%s: %d keys share %d of 256 homes: a single bank must still hash", name, n, len(homes))
		}
		mustClose(t, other)
		mustClose(t, rt)
	}
}

// TestHashKeySpread holds hashKey to the address layouts tasks use: runs at
// strides of a word, a cache line, a grid macroblock (workload.BlockBytes,
// the rt_* grids' layout), a page and a MiB, in the runtime's namespace and
// two scopes', on 8, 64 and 512 banks. The fullest bank may hold at most
// 1.5 times its mean share, and the top 8 bits of the run's first 4096
// hashes — a 256-slot table's home — must reach at least 200 homes. A run is
// 256 keys a bank long, and at least 4096: a uniformly random hash of 4096
// keys onto 512 banks, eight a bank, almost surely fills some bank with 13,
// so the 1.5 bound tells a hash that spreads from one that clusters only
// where a bank's share is large.
func TestHashKeySpread(t *testing.T) {
	const homeKeys = 4096
	for _, banks := range []int{8, 64, 512} {
		rt := newRuntime(Config{Workers: 1}, banks, nil)
		n := max(homeKeys, 256*banks)
		perBank := make([]int, banks)
		for _, stride := range []uint64{8, 64, workload.BlockBytes, 4 << 10, 1 << 20} {
			for ns := uint64(0); ns < 3; ns++ {
				clear(perBank)
				homes := map[uint64]bool{}
				for i := 0; i < n; i++ {
					h := rt.hashKey(tableKey{ns, 0x1000_0000 + uint64(i)*stride})
					perBank[rt.bankOf(h)]++
					if i < homeKeys {
						homes[h>>56] = true
					}
				}
				if fullest, bound := slices.Max(perBank), 3*n/banks/2; fullest > bound {
					t.Errorf("%d banks, stride %d, namespace %d: the fullest bank holds %d of %d keys, want <= %d",
						banks, stride, ns, fullest, n, bound)
				}
				if len(homes) < 200 {
					t.Errorf("%d banks, stride %d, namespace %d: %d keys reach %d of 256 homes, want >= 200",
						banks, stride, ns, homeKeys, len(homes))
				}
			}
		}
		mustClose(t, rt)
	}
}

// TestMaestroBaselineSemantics keeps the single-maestro baseline honest: it
// must execute the same chains with the same ordering and counters as the
// sharded runtime it is benchmarked against.
func TestMaestroBaselineSemantics(t *testing.T) {
	rt := NewMaestro(Config{Workers: 4, Window: 32})
	var order []int
	var mu sync.Mutex
	for i := 0; i < 40; i++ {
		i := i
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(addrChain), In(uint64(i % 3))},
			Do: do(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}),
		})
	}
	rt.Wait(context.Background())
	mustClose(t, rt)
	for i, v := range order {
		if v != i {
			t.Fatalf("maestro chain order broken at %d: %v", i, order[:i+1])
		}
	}
	st := rt.Stats()
	if st.Submitted != 40 || st.Executed != 40 {
		t.Fatalf("maestro stats = %+v", st)
	}
	if _, err := rt.Submit(context.Background(), Task{Do: do(func() {})}); err != ErrStopped {
		t.Fatalf("maestro Submit after Close = %v, want ErrStopped", err)
	}
}

// TestConcurrentSubmitAll pins the all-or-nothing window acquisition:
// several batches whose combined demand exceeds the window must not each
// grab a fraction of the tokens and deadlock — on either resolver, since
// the maestro shares the reservation. WaitOn then has to see one batch's
// keys drain.
func TestConcurrentSubmitAll(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			var executed atomic.Int64
			var wg sync.WaitGroup
			const batches, perBatch = 4, 64 // 4×64 tasks through a 16-slot window
			for b := 0; b < batches; b++ {
				b := b
				wg.Add(1)
				go func() {
					defer wg.Done()
					tasks := make([]Task, perBatch)
					for i := range tasks {
						tasks[i] = Task{
							Deps: []Dep{InOut(uint64(b*8 + i%8))},
							Do:   do(func() { executed.Add(1) }),
						}
					}
					if _, err := rt.SubmitAll(context.Background(), tasks); err != nil {
						t.Error(err)
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent SubmitAll deadlocked on window tokens")
			}
			if err := rt.WaitOn(context.Background(), 0, 1, 2, 3, 4, 5, 6, 7); err != nil {
				t.Fatalf("WaitOn = %v", err)
			}
			if n := executed.Load(); n < perBatch {
				t.Fatalf("WaitOn returned with %d tasks executed, batch 0 alone has %d", n, perBatch)
			}
			mustClose(t, rt)
			if executed.Load() != batches*perBatch {
				t.Fatalf("executed %d of %d", executed.Load(), batches*perBatch)
			}
		})
	}
}
