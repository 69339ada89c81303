package starss

import (
	"context"
	"runtime"
	"strconv"
	"testing"
)

// BenchmarkDepTableKeyLife times what the Dependence Table costs a key
// across its life, on one processor and with no worker in the way: a first
// reader's Check Deps misses and files the key's segment, a second reader's
// finds it, the first's Handle Finished releases it and the second's removes
// it. One iteration is that pair of tasks on fresh addresses, among 1024
// resident keys (a default window's worth) that keep the banks' tables at
// their working size. Everything a task pays once — window token, handle,
// outcome counters — is in both sub-benchmarks, so the cost of a key is
// their difference: (keys=3 − keys=1) / 2, per pair of tasks.
//
//	go test -run '^$' -bench DepTableKeyLife -benchtime 2000000x -count 6 ./internal/starss
func BenchmarkDepTableKeyLife(b *testing.B) {
	const resident = 1024
	for _, keys := range []int{1, 3} {
		b.Run("keys="+strconv.Itoa(keys), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			rt := New(Config{Workers: 1, Window: resident + 2})
			defer mustClose(b, rt)
			ctx := context.Background()
			// checkIn is resolveNew without the dispatch: these tasks have
			// no body to run, only keys to take and give back.
			checkIn := func(node *taskNode) {
				if err := rt.win.acquire(ctx, rt.stopped, 1); err != nil {
					b.Fatal(err)
				}
				if node.handle == nil {
					node.handle = new(Handle)
				}
				*node.handle = Handle{} // reused: the loop allocates nothing
				var buf [hashScratch * inlineDeps]int32
				hashes, order := rt.hashDeps(0, node.task.Deps, buf[:])
				rt.lockBanks(order)
				dc := rt.checkDeps(node, hashes)
				rt.unlockBanks(order)
				if dc != 0 {
					b.Fatalf("a reader of a fresh key waits on %d segments", dc)
				}
			}
			holders := make([]*taskNode, resident)
			for i := range holders {
				holders[i] = &taskNode{ctx: ctx, task: Task{Deps: []Dep{Addr(uint64(i)<<6, ModeIn)}}}
				checkIn(holders[i])
			}
			deps := make([]Dep, keys)
			first := &taskNode{ctx: ctx, task: Task{Deps: deps}}
			second := &taskNode{ctx: ctx, task: Task{Deps: deps}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range deps {
					deps[j] = Addr(uint64(resident+i*keys+j)<<6, ModeIn)
				}
				checkIn(first)
				checkIn(second)
				rt.resolveFinished(first, -1)
				rt.resolveFinished(second, -1)
			}
			b.StopTimer()
			for _, node := range holders {
				rt.resolveFinished(node, -1)
			}
			for i := range rt.banks {
				if n := rt.banks[i].addrs.count; n != 0 {
					b.Fatalf("bank %d still files %d keys", i, n)
				}
			}
		})
	}
}
