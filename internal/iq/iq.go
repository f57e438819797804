// Package iq implements the instruction queues that hold dispatched
// instructions until their register operands are ready and a functional
// unit is free.  The baseline machine has two 64-entry queues (integer
// and floating point); issue selection is oldest-first in dispatch
// order, matching the paper's baseline.
package iq

import (
	"slices"

	"recyclesim/internal/alist"
	"recyclesim/internal/isa"
	"recyclesim/internal/regfile"
)

// slot is one queued entry plus the source register its last issue
// visit found not ready (NoReg when it waited on nothing, or on
// something other than a register).
type slot struct {
	e    *alist.Entry
	wait regfile.PhysReg
}

// Queue is one instruction queue.
type Queue struct {
	cap   int
	slots []slot

	// counts caches per-context occupancy so the ICOUNT fetch and
	// rename priority policies read it in O(1) instead of scanning the
	// queue (grown on demand to the highest context id seen).
	counts []int
}

// Reset empties the queue and sets its capacity, keeping its storage
// and growing it only when it is too small.  It returns q.
func (q *Queue) Reset(capacity int) *Queue {
	clear(q.slots)
	q.cap = capacity
	q.slots = slices.Grow(q.slots[:0], capacity)
	clear(q.counts)
	return q
}

func (q *Queue) bump(ctx, delta int) {
	for ctx >= len(q.counts) {
		q.counts = append(q.counts, 0)
	}
	q.counts[ctx] += delta
}

// Capacity returns the maximum occupancy.
func (q *Queue) Capacity() int { return q.cap }

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.slots) }

// Full reports whether dispatch must stall.
func (q *Queue) Full() bool { return len(q.slots) >= q.cap }

// Push inserts a dispatched entry; it reports false when full.
func (q *Queue) Push(e *alist.Entry) bool {
	if q.Full() {
		return false
	}
	q.slots = append(q.slots, slot{e: e, wait: regfile.NoReg})
	q.bump(e.Ctx, 1)
	return true
}

// Issue visits entries oldest-first and removes those the visitor
// issues.  A visitor that keeps an entry because a source register is
// not ready returns that register as wait, and later passes skip the
// entry with one load of ready[wait] for as long as that bit stays
// false.  The skip is exact when the visitor checks that register's
// ready bit before anything else that could change state: while the
// bit is false, a visit would have kept the entry at that check.  An
// entry kept for any other reason (wait == NoReg) is visited every
// pass.  The queue compacts in the same pass, moving entries only once
// one has issued; retained entries keep their relative order.  The
// visitor must not push to or remove from the queue.
func (q *Queue) Issue(ready []bool, visit func(e *alist.Entry) (issued bool, wait regfile.PhysReg)) {
	w := 0
	for i := range q.slots {
		s := &q.slots[i]
		if s.wait == regfile.NoReg || ready[s.wait] {
			ok, wait := visit(s.e)
			if ok {
				q.bump(s.e.Ctx, -1)
				continue
			}
			s.wait = wait
		}
		if w != i {
			q.slots[w] = *s
		}
		w++
	}
	q.truncate(w)
}

// truncate drops the slots from n on, clearing them so removed entries
// don't pin memory.
func (q *Queue) truncate(n int) {
	clear(q.slots[n:])
	q.slots = q.slots[:n]
}

// RemoveIf deletes all entries matching the predicate (squash support).
func (q *Queue) RemoveIf(match func(e *alist.Entry) bool) int {
	w := 0
	for i, s := range q.slots {
		if match(s.e) {
			q.bump(s.e.Ctx, -1)
			continue
		}
		if w != i {
			q.slots[w] = s
		}
		w++
	}
	removed := len(q.slots) - w
	q.truncate(w)
	return removed
}

// Each visits every queued entry oldest-first without removing any;
// the runtime invariant checker uses it to audit queue membership.
func (q *Queue) Each(visit func(e *alist.Entry)) {
	for _, s := range q.slots {
		visit(s.e)
	}
}

// CountCtx returns the number of queued entries belonging to ctx; the
// ICOUNT fetch policy and the recycle priority counter use this.
func (q *Queue) CountCtx(ctx int) int {
	if ctx < len(q.counts) {
		return q.counts[ctx]
	}
	return 0
}

// ForClass reports which queue an instruction class dispatches to:
// true for the floating-point queue.
func ForClass(c isa.Class) bool {
	switch c {
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPCvt:
		return true
	}
	return false
}
