// Package sweep is the simulator's parallelism boundary: a small
// worker pool that runs many *independent* simulations concurrently
// while every simulation itself stays single-threaded and
// deterministic.
//
// The contract that keeps batch results byte-identical to a serial
// loop: each job owns its index and writes only state reachable from
// that index (its slot in a results slice), jobs never communicate,
// and callers assemble output in input order after Run returns.  Only
// the *scheduling* of jobs onto OS threads is nondeterministic, and no
// simulation result can observe it.
//
// This package is the one simulator package permitted to use
// goroutines and the sync package; the determinism analyzer in
// internal/lint grants it an explicit concurrency allowlist entry (see
// lint.ConcurrencyAllowed) rather than a blanket suppression, so its
// other determinism rules (no wall-clock reads, no global RNG, no
// map-order dependence) still apply here.
package sweep

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count the way Run does: a
// positive count stands, and workers <= 0 selects GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run executes job(0) … job(n-1) across min(Workers(workers), n)
// goroutines and returns when all have finished.  Jobs are handed out
// in index order from a shared counter, but may complete in any order;
// with one worker (or n <= 1) the jobs run serially on the calling
// goroutine, which is also the fallback callers can use to bisect any
// suspected isolation bug.
func Run(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Pipeline overlaps a sequential producer with parallel consumers that
// share a fixed set of caller-owned buffers, named by slot indices
// 0 … slots-1.  produce(s) fills free slot s and reports whether it
// produced anything; it runs on the calling goroutine, one call at a
// time, so whatever it computes in sequence stays deterministic.
// consume(s) runs on one of min(Workers(workers), slots) goroutines,
// and slot s is offered to produce again only after consume(s) has
// returned, so a slot never has two owners.  Pipeline returns once
// produce reports false and every produced slot has been consumed.
// With one worker, production and consumption alternate on the calling
// goroutine through slot 0.
func Pipeline(slots, workers int, produce func(slot int) bool, consume func(slot int)) {
	slots = max(slots, 1)
	workers = min(Workers(workers), slots)
	if workers == 1 {
		for produce(0) {
			consume(0)
		}
		return
	}
	free := make(chan int, slots)
	for s := 0; s < slots; s++ {
		free <- s
	}
	full := make(chan int, slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range full {
				consume(s)
				free <- s
			}
		}()
	}
	for s := range free {
		if !produce(s) {
			break
		}
		full <- s
	}
	close(full)
	wg.Wait()
}

// FreeList keeps idle values for reuse, each under a key: Get(k) only
// hands out a value an earlier Put(k, v) kept, so a value built for
// one machine is never offered to a run on another.  It keeps the
// newest Workers(0) values until they are taken, enough for each
// worker to find the value it left, whatever the garbage collector
// does; any older value it keeps until the second collection after
// its Put, so a run that comes back to a key soon still finds that
// key's value, and values for keys no run asks for again are dropped.
// The zero FreeList is ready to use.
type FreeList[K comparable, V any] struct {
	mu    sync.Mutex
	items []keyed[K, V] // oldest first
	gcs   uint64        // collections seen since the first Put
}

// keyed is one idle value, its key, and the list's gcs at its Put.
type keyed[K comparable, V any] struct {
	k  K
	v  V
	gc uint64
}

// Get takes the newest idle value kept for k; ok is false when there
// is none.
func (l *FreeList[K, V]) Get(k K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.items) - 1; i >= 0; i-- {
		if l.items[i].k == k {
			v = l.items[i].v
			l.items = slices.Delete(l.items, i, i+1)
			return v, true
		}
	}
	return v, false
}

// Put keeps v idle for a later Get(k).
func (l *FreeList[K, V]) Put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gcs == 0 {
		l.gcs = 1
		l.watch()
	}
	l.items = append(l.items, keyed[K, V]{k, v, l.gcs})
}

// collected counts a garbage collection and drops every value but the
// newest Workers(0) that was put before the collection preceding it.
func (l *FreeList[K, V]) collected() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcs++
	n, newest := 0, len(l.items)-Workers(0)
	for i, it := range l.items {
		if i >= newest || it.gc+1 >= l.gcs {
			l.items[n] = it
			n++
		}
	}
	clear(l.items[n:])
	l.items = l.items[:n]
}

// watch calls collected once the next garbage collection has run: the
// collector finds the new sentinel unreachable and queues its
// finalizer, which arms the next one.  The finalizer runs on the
// runtime's finalizer goroutine and takes the list's mutex like Get
// and Put; which idle value a run reuses never changes its result.
func (l *FreeList[K, V]) watch() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		l.collected()
		l.watch()
	})
}

// gcSentinel holds a pointer so that it gets an allocation of its own:
// the runtime batches pointer-free tiny objects, whose finalizers may
// never run.
type gcSentinel struct{ _ *int }
