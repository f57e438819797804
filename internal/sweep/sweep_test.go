package sweep

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		Run(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	Run(0, 4, func(int) { t.Error("job called for n=0") })
	Run(-3, 4, func(int) { t.Error("job called for n<0") })
}

// Every produced item is consumed exactly once, from the slot it was
// produced into, and no slot is refilled while its consumer runs.
func TestPipelineConsumesEachItemOnce(t *testing.T) {
	for _, tc := range []struct{ slots, workers int }{
		{1, 4}, {2, 1}, {4, 0}, {4, 2}, {6, 3}, {8, 64},
	} {
		const n = 200
		var hits [n]atomic.Int32
		item := make([]int, tc.slots)
		busy := make([]atomic.Bool, tc.slots)
		produced := 0
		Pipeline(tc.slots, tc.workers, func(s int) bool {
			if busy[s].Load() {
				t.Errorf("slots=%d workers=%d: slot %d refilled while consumed", tc.slots, tc.workers, s)
			}
			if produced == n {
				return false
			}
			item[s] = produced
			produced++
			return true
		}, func(s int) {
			busy[s].Store(true)
			hits[item[s]].Add(1)
			busy[s].Store(false)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("slots=%d workers=%d: item %d consumed %d times", tc.slots, tc.workers, i, got)
			}
		}
	}
}

func TestPipelineSerialUsesSlotZero(t *testing.T) {
	produced := 0
	Pipeline(4, 1, func(s int) bool {
		if s != 0 {
			t.Errorf("serial pipeline produced into slot %d", s)
		}
		produced++
		return produced <= 3
	}, func(s int) {
		if s != 0 {
			t.Errorf("serial pipeline consumed slot %d", s)
		}
	})
	Pipeline(4, 3, func(int) bool { return false }, func(int) { t.Error("consume called with nothing produced") })
}

func TestRunResultsMatchSerial(t *testing.T) {
	const n = 50
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	Run(n, 8, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// A value Put under one key is only ever handed out for that key, and
// only once.
func TestPoolsKeepKeysApart(t *testing.T) {
	var l FreeList[string, *int]
	if _, ok := l.Get("a"); ok {
		t.Fatal("an empty FreeList handed out a value")
	}
	one := new(int)
	l.Put("a", one)
	if v, ok := l.Get("b"); ok {
		t.Fatalf("Get(b) returned %p, kept for a", v)
	}
	if v, ok := l.Get("a"); !ok || v != one {
		t.Fatalf("Get(a) returned %p, %v; want %p", v, ok, one)
	}
	if v, ok := l.Get("a"); ok {
		t.Fatalf("Get(a) returned %p twice", v)
	}
}

// TestFreeListBound: a FreeList keeps every value through one garbage
// collection and, after the second, only the newest Workers(0) values
// over all keys, however many keys it saw; Get returns the newest value
// kept for a key, and a key never put always misses.
func TestFreeListBound(t *testing.T) {
	w := Workers(0)
	// Counted as armed, so only this test's collected calls count.
	l := FreeList[int, int]{gcs: 1}
	// One value under each of 2w keys, then a second under the last.
	type put struct{ k, v int }
	var puts []put
	for k := 0; k < 2*w; k++ {
		puts = append(puts, put{k, k})
	}
	puts = append(puts, put{2*w - 1, -1})
	for _, p := range puts {
		l.Put(p.k, p.v)
	}
	l.collected()
	if n := len(l.items); n != len(puts) {
		t.Fatalf("one collection left %d values, want all %d", n, len(puts))
	}
	l.collected()
	if n := len(l.items); n != w {
		t.Fatalf("two collections left %d values, want %d", n, w)
	}
	kept := puts[len(puts)-w:]
	for k := 0; k < 2*w; k++ {
		// The values kept for k come back newest first, then k misses.
		for i := len(kept) - 1; i >= 0; i-- {
			if kept[i].k != k {
				continue
			}
			if v, ok := l.Get(k); !ok || v != kept[i].v {
				t.Errorf("Get(%d) = %d, %v; want %d", k, v, ok, kept[i].v)
			}
		}
		if v, ok := l.Get(k); ok {
			t.Errorf("Get(%d) = %d, a value not kept", k, v)
		}
	}
	if v, ok := l.Get(-1); ok {
		t.Errorf("Get of a key never put returned %d", v)
	}
}

// TestFreeListWatchesCollections: real garbage collections, not only
// calls of collected, trim a FreeList to its newest Workers(0) values.
func TestFreeListWatchesCollections(t *testing.T) {
	w := Workers(0)
	var l FreeList[int, int]
	for k := 0; k < 2*w; k++ {
		l.Put(k, k)
	}
	held := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.items)
	}
	// Finalizers run on their own goroutine after a collection, so the
	// trim shows up some collections later.
	for i := 0; i < 100 && held() > w; i++ {
		runtime.GC()
	}
	if n := held(); n != w {
		t.Fatalf("after the collections the list holds %d values, want %d", n, w)
	}
}
