package iq

import (
	"reflect"
	"testing"

	"recyclesim/internal/alist"
	"recyclesim/internal/isa"
	"recyclesim/internal/regfile"
)

func ent(ctx int, seq uint64) *alist.Entry {
	return &alist.Entry{Ctx: int8(ctx), Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1},
		Src1: regfile.NoReg, Src2: regfile.NoReg}
}

// seqs lists the queued entries' sequence numbers oldest-first.
func seqs(q *Queue) []uint64 {
	var out []uint64
	q.Each(func(e *alist.Entry) { out = append(out, e.Seq) })
	return out
}

func TestPushFull(t *testing.T) {
	q := new(Queue).Reset(2)
	if !q.Push(ent(0, 0)) || !q.Push(ent(0, 1)) {
		t.Fatal("push into non-full queue failed")
	}
	if q.Push(ent(0, 2)) {
		t.Fatal("push into full queue succeeded")
	}
	if !q.Full() || q.Len() != 2 || q.Capacity() != 2 {
		t.Errorf("len=%d cap=%d", q.Len(), q.Capacity())
	}
}

func TestScanOrderAndRemoval(t *testing.T) {
	q := new(Queue).Reset(8)
	for i := 0; i < 5; i++ {
		q.Push(ent(0, uint64(i)))
	}
	var seen []uint64
	q.Issue(nil, func(e *alist.Entry) (bool, regfile.PhysReg) {
		seen = append(seen, e.Seq)
		return e.Seq%2 == 0, regfile.NoReg // issue even seqs
	})
	if !reflect.DeepEqual(seen, []uint64{0, 1, 2, 3, 4}) {
		t.Errorf("visit order = %v", seen)
	}
	// Remaining entries keep their relative order.
	if rest := seqs(q); !reflect.DeepEqual(rest, []uint64{1, 3}) {
		t.Errorf("rest = %v", rest)
	}
}

func TestRemoveFromAndCountCtx(t *testing.T) {
	q := new(Queue).Reset(8)
	q.Push(ent(0, 0))
	q.Push(ent(1, 0))
	q.Push(ent(0, 1))
	if q.CountCtx(0) != 2 || q.CountCtx(1) != 1 {
		t.Errorf("counts = %d, %d", q.CountCtx(0), q.CountCtx(1))
	}
	removed := q.RemoveFrom(0, 0)
	if removed != 2 || q.Len() != 1 || q.CountCtx(0) != 0 {
		t.Errorf("removed=%d len=%d", removed, q.Len())
	}
}

// An entry kept on a not-ready register is not visited again until that
// register's ready bit is set; entries kept for any other reason are
// visited every pass; the retained order and the per-context counts
// survive the removals.
func TestIssueSkipsBlockedEntries(t *testing.T) {
	ready := make([]bool, 8)
	q := new(Queue).Reset(8)
	a, b, c, d := ent(0, 0), ent(1, 1), ent(0, 2), ent(1, 3)
	a.Src1, c.Src2 = 3, 5
	for _, e := range []*alist.Entry{a, b, c, d} {
		q.Push(e)
	}
	var visited []uint64
	issueB := false
	visit := func(e *alist.Entry) (bool, regfile.PhysReg) {
		visited = append(visited, e.Seq)
		for _, r := range []regfile.PhysReg{e.Src1, e.Src2} {
			if r != regfile.NoReg && !ready[r] {
				return false, r
			}
		}
		switch e {
		case b:
			return issueB, regfile.NoReg // a busy unit: no register kept
		case d:
			return false, regfile.NoReg
		}
		return true, regfile.NoReg
	}
	pass := func(want ...uint64) {
		t.Helper()
		visited = visited[:0]
		q.Issue(ready, visit)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(visited, want) {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}

	pass(0, 1, 2, 3)
	pass(1, 3) // a waits on p3, c on p5
	ready[4] = true
	pass(1, 3) // an unrelated register changes nothing
	issueB = true
	pass(1, 3)
	if got := seqs(q); !reflect.DeepEqual(got, []uint64{0, 2, 3}) {
		t.Fatalf("retained %v, want [0 2 3]", got)
	}
	if q.CountCtx(0) != 2 || q.CountCtx(1) != 1 {
		t.Fatalf("counts = %d, %d after b issued", q.CountCtx(0), q.CountCtx(1))
	}
	ready[3] = true
	pass(0, 3) // a wakes and issues; c still waits
	if got := seqs(q); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("retained %v, want [2 3]", got)
	}
	if q.CountCtx(0) != 1 || q.CountCtx(1) != 1 {
		t.Fatalf("counts = %d, %d after a issued", q.CountCtx(0), q.CountCtx(1))
	}
	// A squash removes the waiting entry; the survivor keeps being
	// visited and the counts follow.
	if n := q.RemoveFrom(int(c.Ctx), c.Seq); n != 1 {
		t.Fatalf("RemoveFrom removed %d", n)
	}
	pass(3)
	if q.Len() != 1 || q.CountCtx(0) != 0 || q.CountCtx(1) != 1 {
		t.Fatalf("len=%d counts = %d, %d after the squash", q.Len(), q.CountCtx(0), q.CountCtx(1))
	}
}

// Issue with skipping visits exactly the entries that matter: driven
// side by side with a reference queue that visits every entry every
// pass, under a visitor that checks its source registers first, both
// issue the same entries in the same order, and ready bits that fall
// back to false (a register freed and reallocated) are honoured.
// Squashes in between (RemoveFrom) drop the same entries from both and
// keep the rest in order.
func TestIssueMatchesFullScan(t *testing.T) {
	const regs = 16
	x := uint64(7)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33 % n
	}
	ready := make([]bool, regs)
	q := new(Queue).Reset(32)
	var ref []*alist.Entry
	busy := map[uint64]bool{} // per-pass "no unit free" verdicts, shared by both sides
	visit := func(issued *[]uint64) func(*alist.Entry) (bool, regfile.PhysReg) {
		return func(e *alist.Entry) (bool, regfile.PhysReg) {
			for _, r := range []regfile.PhysReg{e.Src1, e.Src2} {
				if r != regfile.NoReg && !ready[r] {
					return false, r
				}
			}
			if busy[e.Seq] {
				return false, regfile.NoReg
			}
			*issued = append(*issued, e.Seq)
			return true, regfile.NoReg
		}
	}
	seq := uint64(0)
	for step := 0; step < 5_000; step++ {
		for k := rnd(4); k > 0 && !q.Full(); k-- {
			e := ent(int(rnd(3)), seq)
			seq++
			if rnd(3) > 0 {
				e.Src1 = regfile.PhysReg(rnd(regs))
			}
			if rnd(2) > 0 {
				e.Src2 = regfile.PhysReg(rnd(regs))
			}
			q.Push(e)
			ref = append(ref, e)
		}
		for k := rnd(3); k > 0; k-- {
			ready[rnd(regs)] = rnd(4) > 0
		}
		if rnd(8) == 0 && seq > 0 {
			// A squash drops one context's entries from some seq on.
			ctx, from := int(rnd(3)), seq-rnd(min(seq, 40))
			keep := ref[:0]
			for _, e := range ref {
				if int(e.Ctx) != ctx || e.Seq < from {
					keep = append(keep, e)
				}
			}
			if n := q.RemoveFrom(ctx, from); n != len(ref)-len(keep) {
				t.Fatalf("step %d: RemoveFrom(%d, %d) dropped %d, want %d", step, ctx, from, n, len(ref)-len(keep))
			}
			ref = keep
		}
		clear(busy)
		for _, e := range ref {
			busy[e.Seq] = rnd(3) == 0
		}

		var got, want []uint64
		q.Issue(ready, visit(&got))
		keep := ref[:0]
		for _, e := range ref {
			if ok, _ := visit(&want)(e); !ok {
				keep = append(keep, e)
			}
		}
		ref = keep
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: issued %v, full scan issued %v", step, got, want)
		}
		var refSeqs []uint64
		counts := map[int]int{}
		for _, e := range ref {
			refSeqs = append(refSeqs, e.Seq)
			counts[int(e.Ctx)]++
		}
		if got := seqs(q); !reflect.DeepEqual(got, refSeqs) {
			t.Fatalf("step %d: retained %v, full scan retained %v", step, got, refSeqs)
		}
		for ctx := 0; ctx < 3; ctx++ {
			if q.CountCtx(ctx) != counts[ctx] {
				t.Fatalf("step %d: CountCtx(%d) = %d, want %d", step, ctx, q.CountCtx(ctx), counts[ctx])
			}
		}
	}
}

func TestForClass(t *testing.T) {
	if ForClass(isa.ClassIntALU) || ForClass(isa.ClassLoad) || ForClass(isa.ClassBranch) {
		t.Error("integer classes must go to the integer queue")
	}
	if !ForClass(isa.ClassFPAdd) || !ForClass(isa.ClassFPDiv) || !ForClass(isa.ClassFPCvt) {
		t.Error("fp classes must go to the fp queue")
	}
}
