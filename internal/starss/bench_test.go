package starss

import (
	"context"
	"hash/maphash"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

// BenchmarkDepTableKeyLife times what the Dependence Table costs a key
// across its life, on one processor and with no worker in the way: a first
// reader's Check Deps misses and files the key's segment, a second reader's
// finds it, the first's Handle Finished releases it and the second's retires
// it, leaving it filed for a later filing's sweep. One iteration is that pair of tasks on fresh addresses, among 1024
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
			// checkIn is resolveNew on a chunk of one without the dispatch:
			// these tasks have no body to run, only keys to take and give
			// back. It fills the node in again each time — Handle Finished
			// leaves it zero — around a reused handle: the loop allocates
			// nothing. The benchmark is the namespace's only submitter, so it
			// takes no admission lock.
			checkIn := func(node *[1]taskNode, h *Handle, deps []Dep) {
				if err := rt.win.acquire(ctx, rt.stopped, 1); err != nil {
					b.Fatal(err)
				}
				*h = Handle{}
				node[0] = taskNode{ctx: ctx, task: Task{Deps: deps}, handle: h}
				if waiting := rt.checkDeps(&rt.adm, node[:]); waiting.len() != 0 {
					b.Fatal("a reader of a fresh key waits")
				}
			}
			holders := make([]*[1]taskNode, resident)
			for i := range holders {
				holders[i] = new([1]taskNode)
				checkIn(holders[i], new(Handle), []Dep{In(uint64(i) << 6)})
			}
			deps := make([]Dep, keys)
			var first, second [1]taskNode
			var firstH, secondH Handle
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range deps {
					deps[j] = In(uint64(resident+i*keys+j) << 6)
				}
				checkIn(&first, &firstH, deps)
				checkIn(&second, &secondH, deps)
				rt.resolveFinished(&first[0], -1)
				rt.resolveFinished(&second[0], -1)
			}
			b.StopTimer()
			for _, node := range holders {
				rt.resolveFinished(&node[0], -1)
			}
			for i := range rt.banks {
				if n := liveKeys(rt, i); n != 0 {
					b.Fatalf("bank %d still holds %d keys", i, n)
				}
			}
		})
	}
}

// BenchmarkReadyHandOff times the hop between a task becoming ready and a
// worker holding it, per task, both ways the runtime makes it. push32_pop1
// is the ready queue alone: one goroutine hands tasks over readyBatch at a
// time — what admitAll does — and another takes them one by one, as a worker
// does. chain1000 is the hop the queue never sees: a 1 000-link inout chain
// on one worker, every link but the first (and each successorRun-th, which
// goes round through the queue) run by the worker that released it.
//
//	go test -run '^$' -bench ReadyHandOff -benchtime 2000000x -count 6 ./internal/starss
func BenchmarkReadyHandOff(b *testing.B) {
	b.Run("push32_pop1", func(b *testing.B) {
		const window = 1024
		q := newReadyQueue(window)
		// popped trails the consumer's count by less than a batch, so the
		// producer — standing in for the window — only ever underestimates
		// the room it has.
		var popped atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for n := int64(1); ; n++ {
				if _, ok := q.pop(); !ok {
					return
				}
				if n%readyBatch == 0 {
					popped.Store(n)
				}
			}
		}()
		node := new(taskNode)
		var batch [readyBatch]*taskNode
		for i := range batch {
			batch[i] = node
		}
		b.ResetTimer()
		for pushed := 0; pushed < b.N; {
			n := min(readyBatch, b.N-pushed)
			for int64(pushed+n)-popped.Load() > window {
				runtime.Gosched()
			}
			q.push(batch[:n])
			pushed += n
		}
		q.close()
		<-done
	})
	b.Run("chain1000", func(b *testing.B) {
		const links = 1000
		rt := New(Config{Workers: 1, Window: 2 * links})
		defer mustClose(b, rt)
		ctx := context.Background()
		tasks := make([]Task, links)
		for i := range tasks {
			tasks[i] = Task{Deps: []Dep{InOut(0x40)}, Do: emptyBody}
		}
		b.ResetTimer()
		for done := 0; done < b.N; done += links {
			if _, err := rt.SubmitAll(ctx, tasks[:min(links, b.N-done)]); err != nil {
				b.Fatal(err)
			}
			if err := rt.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHashKey times the hash of one key, in ns per key: maphash is
// maphash.Comparable over the 16-byte key, what hashKey took before the
// multiply-fold; fold is hashKey itself. Keys walk a grid's macroblocks.
//
//	go test -run '^$' -bench HashKey -count 6 ./internal/starss
func BenchmarkHashKey(b *testing.B) {
	b.Run("maphash", func(b *testing.B) {
		seed := maphash.MakeSeed()
		k := tableKey{ns: 1}
		for b.Loop() {
			k.addr += 1024
			hashSink += maphash.Comparable(seed, k)
		}
	})
	b.Run("fold", func(b *testing.B) {
		rt := &Runtime{seed: newSeed()}
		k := tableKey{ns: 1}
		for b.Loop() {
			k.addr += 1024
			hashSink += rt.hashKey(k)
		}
	})
}

// hashSink keeps BenchmarkHashKey's hashes live.
var hashSink uint64
