package sweep

import (
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

// TestFreeListBound: a FreeList keeps at most the newest Workers(0)
// values, whatever was put before them, and hands them out newest
// first, each once; an empty list misses.
func TestFreeListBound(t *testing.T) {
	w := Workers(0)
	var l FreeList[*int]
	if v, ok := l.Get(); ok {
		t.Fatalf("an empty FreeList handed out %p", v)
	}
	puts := make([]*int, 2*w+1)
	for i := range puts {
		puts[i] = new(int)
		l.Put(puts[i])
	}
	if n := len(l.items); n != w {
		t.Fatalf("the list keeps %d values, want %d", n, w)
	}
	for i := len(puts) - 1; i >= len(puts)-w; i-- {
		if v, ok := l.Get(); !ok || v != puts[i] {
			t.Errorf("Get = %p, %v; want put %d (%p)", v, ok, i, puts[i])
		}
	}
	if v, ok := l.Get(); ok {
		t.Errorf("Get = %p, a value dropped or handed out before", v)
	}
	// A value handed out and put back is the newest again.
	l.Put(puts[0])
	l.Put(puts[1])
	if v, _ := l.Get(); v != puts[1] {
		t.Errorf("Get = %p, want the value put last (%p)", v, puts[1])
	}
}
