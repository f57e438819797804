package wheel

import (
	"testing"

	"recyclesim/internal/alist"
)

func drain(w *Wheel, now uint64) []*alist.Entry {
	var out []*alist.Entry
	for _, it := range w.PopDue(now) {
		out = append(out, it.E)
	}
	return out
}

func TestScheduleAndPop(t *testing.T) {
	w := new(Wheel).Reset(8)
	if w.Horizon() != 8 {
		t.Fatalf("horizon = %d, want 8", w.Horizon())
	}
	a, b, c := &alist.Entry{Seq: 1}, &alist.Entry{Seq: 2}, &alist.Entry{Seq: 3}
	w.Schedule(a, 5, 0)
	w.Schedule(b, 5, 0)
	w.Schedule(c, 6, 0)
	if w.Len() != 3 {
		t.Fatalf("len = %d, want 3", w.Len())
	}
	if got := drain(w, 4); len(got) != 0 {
		t.Fatalf("cycle 4 drained %d items", len(got))
	}
	got := drain(w, 5)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("cycle 5 drained %v", got)
	}
	if got := drain(w, 6); len(got) != 1 || got[0] != c {
		t.Fatalf("cycle 6 drained %v", got)
	}
	if w.Len() != 0 {
		t.Fatalf("len = %d after draining", w.Len())
	}
}

func TestPastDueClampsToNextCycle(t *testing.T) {
	w := new(Wheel).Reset(8)
	e := &alist.Entry{}
	w.Schedule(e, 10, 20) // due in the past: completes next cycle
	if got := drain(w, 21); len(got) != 1 || got[0] != e {
		t.Fatalf("clamped item not drained at now+1: %v", got)
	}
}

func TestLapCollision(t *testing.T) {
	// Two items in the same slot, one ring-lap apart: only the due one
	// drains, the other is retained for its own cycle.
	w := new(Wheel).Reset(8)
	near, farr := &alist.Entry{Seq: 1}, &alist.Entry{Seq: 2}
	w.Schedule(near, 9, 8)
	w.Schedule(farr, 17, 16) // 17 & 7 == 9 & 7
	if got := drain(w, 9); len(got) != 1 || got[0] != near {
		t.Fatalf("cycle 9 drained %v", got)
	}
	if got := drain(w, 17); len(got) != 1 || got[0] != farr {
		t.Fatalf("cycle 17 drained %v", got)
	}
}

func TestFarSchedule(t *testing.T) {
	w := new(Wheel).Reset(8)
	e := &alist.Entry{}
	w.Schedule(e, 100, 0) // beyond the horizon
	for now := uint64(1); now < 100; now++ {
		if got := drain(w, now); len(got) != 0 {
			t.Fatalf("cycle %d drained %d items early", now, len(got))
		}
	}
	if got := drain(w, 100); len(got) != 1 || got[0] != e {
		t.Fatalf("far item not drained at 100: %v", got)
	}
}

func TestEachAndReset(t *testing.T) {
	w := new(Wheel).Reset(8)
	w.Schedule(&alist.Entry{}, 3, 0)
	w.Schedule(&alist.Entry{}, 100, 0)
	n := 0
	w.Each(func(Item) { n++ })
	if n != 2 {
		t.Fatalf("Each visited %d, want 2", n)
	}
	w.Reset(8)
	if w.Len() != 0 {
		t.Fatalf("len = %d after reset", w.Len())
	}
	n = 0
	w.Each(func(Item) { n++ })
	if n != 0 {
		t.Fatalf("Each visited %d after reset", n)
	}
}

func TestSteadyStateNoAlloc(t *testing.T) {
	w := new(Wheel).Reset(64)
	ents := make([]*alist.Entry, 16)
	for i := range ents {
		ents[i] = &alist.Entry{Seq: uint64(i)}
	}
	// Warm the slot capacity.
	now := uint64(0)
	cycleOnce := func() {
		for i, e := range ents {
			w.Schedule(e, now+uint64(1+i%7), now)
		}
		for d := uint64(1); d <= 8; d++ {
			w.PopDue(now + d)
		}
		now += 8
	}
	cycleOnce()
	avg := testing.AllocsPerRun(100, cycleOnce)
	if avg > 0 {
		t.Errorf("steady-state allocs per wheel cycle = %v, want 0", avg)
	}
}
