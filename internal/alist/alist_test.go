package alist

import (
	"reflect"
	"testing"
	"testing/quick"

	"recyclesim/internal/bpred"
	"recyclesim/internal/isa"
)

func push(t *testing.T, l *List, pc uint64) *Entry {
	t.Helper()
	e, _, ok := l.Push()
	if !ok {
		t.Fatal("push failed")
	}
	e.PC = pc
	return e
}

func TestPushCommitRetain(t *testing.T) {
	l := new(List).Reset(4)
	for i := 0; i < 4; i++ {
		push(t, l, uint64(0x1000+4*i))
	}
	if _, _, ok := l.Push(); ok {
		t.Fatal("push into a full window should fail")
	}
	l.CommitHead()
	// Now a push evicts the retained committed entry.
	e, evicted, ok := l.Push()
	if !ok || evicted != 0 {
		t.Fatalf("push after commit: ok=%v evicted=%d", ok, evicted)
	}
	if e.Seq != 4 {
		t.Errorf("seq = %d", e.Seq)
	}
	if l.FirstSeq() != 1 {
		t.Errorf("first seq = %d", l.FirstSeq())
	}
}

func TestAtBounds(t *testing.T) {
	l := new(List).Reset(4)
	push(t, l, 0x1000)
	if _, ok := l.At(0); !ok {
		t.Error("entry 0 should be retained")
	}
	if _, ok := l.At(1); ok {
		t.Error("entry 1 does not exist")
	}
}

// popFrom pops every entry PopBack(seq) yields and returns their
// sequence numbers in the order they came off.
func popFrom(l *List, seq uint64) (undone []uint64) {
	for e, ok := l.PopBack(seq); ok; e, ok = l.PopBack(seq) {
		undone = append(undone, e.Seq)
	}
	return undone
}

func TestSquashFrom(t *testing.T) {
	l := new(List).Reset(8)
	for i := 0; i < 6; i++ {
		push(t, l, uint64(i))
	}
	l.CommitHead()
	l.CommitHead()
	undone := popFrom(l, 3)
	if len(undone) != 3 || undone[0] != 5 || undone[2] != 3 {
		t.Errorf("undone = %v (want youngest-first 5,4,3)", undone)
	}
	if l.TailSeq() != 3 || l.InFlight() != 1 {
		t.Errorf("tail=%d inflight=%d", l.TailSeq(), l.InFlight())
	}
	// Squashing below the commit point must not touch committed entries.
	undone = popFrom(l, 0)
	if len(undone) != 1 || undone[0] != 2 {
		t.Errorf("undone = %v (committed entries must survive)", undone)
	}
}

func TestSquashAll(t *testing.T) {
	l := new(List).Reset(8)
	for i := 0; i < 5; i++ {
		push(t, l, uint64(i))
	}
	l.CommitHead()
	// A context reclaim pops every uncommitted entry, then clears the
	// list.
	if n := len(popFrom(l, 0)); n != 4 {
		t.Errorf("squashed %d, want 4 (uncommitted only)", n)
	}
	if l.Len() != 1 || l.InFlight() != 0 {
		t.Errorf("committed history must survive the squash: len=%d inflight=%d", l.Len(), l.InFlight())
	}
	l.Clear()
	if l.Len() != 0 || l.InFlight() != 0 {
		t.Errorf("list not empty after Clear: len=%d", l.Len())
	}
	// Sequence numbering starts over.
	e, _, _ := l.Push()
	if e.Seq != l.TailSeq()-1 || e.Seq != 0 {
		t.Errorf("seq after squash-all = %d", e.Seq)
	}
}

func TestFirstPCAndFindPC(t *testing.T) {
	l := new(List).Reset(4)
	if _, ok := l.FirstPC(); ok {
		t.Error("empty list has no first PC")
	}
	push(t, l, 0x1000)
	push(t, l, 0x1004)
	push(t, l, 0x1000) // loop back
	if pc, _ := l.FirstPC(); pc != 0x1000 {
		t.Errorf("first pc = 0x%x", pc)
	}
	if seq, ok := l.FindPC(0x1000); !ok || seq != 0 {
		t.Errorf("FindPC oldest = %d, %v", seq, ok)
	}
	if _, ok := l.FindPC(0x2000); ok {
		t.Error("found nonexistent pc")
	}
}

func TestTraceTaken(t *testing.T) {
	e := Entry{Inst: isa.Inst{Op: isa.OpBeq}, Pred: bpred.Pred{Taken: true}}
	if !e.TraceTaken() {
		t.Error("unexecuted branch should report its prediction")
	}
	e.Executed = true
	e.Taken = false
	if e.TraceTaken() {
		t.Error("executed branch should report its outcome")
	}
}

func TestHeadAndCommitSeq(t *testing.T) {
	l := new(List).Reset(4)
	if _, ok := l.Head(); ok {
		t.Error("empty list has no head")
	}
	push(t, l, 1)
	push(t, l, 2)
	h, _ := l.Head()
	if h.Seq != 0 {
		t.Errorf("head seq = %d", h.Seq)
	}
	l.CommitHead()
	h, _ = l.Head()
	if h.Seq != 1 || l.CommitSeq() != 1 {
		t.Errorf("head seq = %d commitSeq = %d", h.Seq, l.CommitSeq())
	}
	if mustAt(l, 0).Seq >= l.CommitSeq() {
		t.Error("committed entry should sit below the commit pointer")
	}
}

func mustAt(l *List, seq uint64) *Entry {
	e, ok := l.At(seq)
	if !ok {
		panic("missing entry")
	}
	return e
}

// Property: after any interleaving of pushes, commits and squashes, the
// invariants first <= commit <= tail and Len == tail-first hold, and
// every retained seq is addressable.
func TestRingInvariants(t *testing.T) {
	fn := func(ops []uint8) bool {
		l := new(List).Reset(8)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				l.Push()
			case 2:
				if l.InFlight() > 0 {
					l.CommitHead()
				}
			case 3:
				if l.InFlight() > 0 {
					popFrom(l, l.CommitSeq()+uint64(op)%uint64(l.InFlight()))
				}
			}
			if l.FirstSeq() > l.CommitSeq() || l.CommitSeq() > l.TailSeq() {
				return false
			}
			if l.Len() != int(l.TailSeq()-l.FirstSeq()) || l.Len() > l.Capacity() {
				return false
			}
			for s := l.FirstSeq(); s < l.TailSeq(); s++ {
				if e, ok := l.At(s); !ok || e.Seq != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The ring stores Capacity entries in a power-of-two array indexed by
// mask.  Driven side by side with a plain slice FIFO through many
// wraparounds, it reports the same retained entries, evictions, squash
// order and PC searches for capacities below, at and above a power of
// two.
func TestRingMatchesReferenceFIFO(t *testing.T) {
	type rec struct {
		seq, pc   uint64
		committed bool
	}
	for _, capacity := range []int{5, 8, 48} {
		l := new(List).Reset(capacity)
		var ref []rec // retained entries, oldest first
		var tail uint64
		x := uint64(capacity)
		rnd := func(n uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33 % n
		}
		inFlight := func() int {
			n := 0
			for _, r := range ref {
				if !r.committed {
					n++
				}
			}
			return n
		}
		for step := 0; step < 20_000; step++ {
			switch op := rnd(16); {
			case op < 7:
				e, evicted, ok := l.Push()
				wantEvicted := ^uint64(0)
				if len(ref) == capacity {
					if inFlight() == capacity {
						if ok {
							t.Fatalf("cap %d step %d: push into a window full of live entries succeeded", capacity, step)
						}
						continue
					}
					wantEvicted = ref[0].seq
					ref = ref[1:]
				}
				if !ok || evicted != wantEvicted || e.Seq != tail {
					t.Fatalf("cap %d step %d: Push = seq %d evicted %d ok %v, want seq %d evicted %d",
						capacity, step, e.Seq, evicted, ok, tail, wantEvicted)
				}
				e.PC = rnd(12) * isa.InstBytes
				ref = append(ref, rec{seq: tail, pc: e.PC})
				tail++
			case op < 13:
				if inFlight() > 0 {
					l.CommitHead()
					ref[len(ref)-inFlight()].committed = true
				}
			case op < 15:
				// Committed entries survive: the squash starts at the
				// later of from and the commit point.
				from := tail - rnd(uint64(len(ref))+1)
				newTail := max(from, tail-uint64(inFlight()))
				var want []uint64
				undone := popFrom(l, from)
				for len(ref) > 0 && ref[len(ref)-1].seq >= newTail {
					want = append(want, ref[len(ref)-1].seq)
					ref = ref[:len(ref)-1]
				}
				tail = newTail
				if !reflect.DeepEqual(undone, want) {
					t.Fatalf("cap %d step %d: PopBack(%d) undid %v, want %v", capacity, step, from, undone, want)
				}
			default:
				// Every uncommitted entry: the committed history stays.
				n := len(popFrom(l, 0))
				if n != inFlight() {
					t.Fatalf("cap %d step %d: PopBack(0) undid %d, want %d", capacity, step, n, inFlight())
				}
				tail -= uint64(n)
				ref = ref[:len(ref)-n]
			}

			if l.TailSeq() != tail || l.Len() != len(ref) || l.InFlight() != inFlight() {
				t.Fatalf("cap %d step %d: tail %d len %d inflight %d, want %d %d %d",
					capacity, step, l.TailSeq(), l.Len(), l.InFlight(), tail, len(ref), inFlight())
			}
			first := tail
			if len(ref) > 0 {
				first = ref[0].seq
			}
			for s := first - min(first, 2); s < tail+2; s++ {
				e, ok := l.At(s)
				if ok != (s >= first && s < tail) {
					t.Fatalf("cap %d step %d: At(%d) ok=%v with window [%d,%d)", capacity, step, s, ok, first, tail)
				}
				if committed := s < l.CommitSeq(); ok && (e.Seq != s || e.PC != ref[s-first].pc || committed != ref[s-first].committed) {
					t.Fatalf("cap %d step %d: At(%d) = seq %d pc %d committed %v, want %+v",
						capacity, step, s, e.Seq, e.PC, committed, ref[s-first])
				}
			}
			if pc, ok := l.FirstPC(); ok != (len(ref) > 0) || ok && pc != ref[0].pc {
				t.Fatalf("cap %d step %d: FirstPC = %d, %v", capacity, step, pc, ok)
			}
			pc := rnd(12) * isa.InstBytes
			seq, ok := l.FindPC(pc)
			want := -1
			for i, r := range ref {
				if r.pc == pc {
					want = i
					break
				}
			}
			if ok != (want >= 0) || ok && seq != ref[want].seq {
				t.Fatalf("cap %d step %d: FindPC(%d) = %d, %v, want index %d", capacity, step, pc, seq, ok, want)
			}
		}
		if tail < uint64(8*capacity) {
			t.Fatalf("cap %d: only %d pushes, too few wraparounds", capacity, tail)
		}
	}
}
