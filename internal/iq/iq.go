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

// Queue is one instruction queue.  It keeps its entries and, for
// each, the source register its last issue visit found not ready
// (NoReg when it waited on nothing, or on something other than a
// register) in two parallel arrays, so the issue pass skips a blocked
// entry reading only wait and the ready bits.
type Queue struct {
	cap  int
	ents []*alist.Entry
	wait []regfile.PhysReg
}

// Reset empties the queue and sets its capacity, keeping its storage
// and growing it only when it is too small.  It returns q.
func (q *Queue) Reset(capacity int) *Queue {
	q.cap = capacity
	q.ents = slices.Grow(q.ents[:0], capacity)
	q.wait = slices.Grow(q.wait[:0], capacity)
	return q
}

// Capacity returns the maximum occupancy.
func (q *Queue) Capacity() int { return q.cap }

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.ents) }

// Full reports whether dispatch must stall.
func (q *Queue) Full() bool { return len(q.ents) >= q.cap }

// Push inserts a dispatched entry; it reports false when full.
func (q *Queue) Push(e *alist.Entry) bool {
	if q.Full() {
		return false
	}
	q.ents = append(q.ents, e)
	q.wait = append(q.wait, regfile.NoReg)
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
	ents, waits := q.ents, q.wait[:len(q.ents)]
	w := 0
	for i, wr := range waits {
		if wr == regfile.NoReg || ready[wr] {
			ok, wait := visit(ents[i])
			if ok {
				continue
			}
			wr = wait
		}
		if w != i {
			ents[w] = ents[i]
		}
		waits[w] = wr
		w++
	}
	q.truncate(w)
}

// truncate drops the entries from n on.  Nothing is cleared: every
// entry the core queues is a slot of an active-list ring it owns for
// its life, so a stale pointer past the end pins nothing.
func (q *Queue) truncate(n int) {
	q.ents = q.ents[:n]
	q.wait = q.wait[:n]
}

// RemoveFrom drops context ctx's entries with Seq >= seq (a squashed
// range, or with seq 0 every entry of a context whose issue is
// cancelled), preserving the order of the rest, and returns how many
// it dropped.
func (q *Queue) RemoveFrom(ctx int, seq uint64) int {
	w := 0
	for i, e := range q.ents {
		if int(e.Ctx) == ctx && e.Seq >= seq {
			continue
		}
		if w != i {
			q.ents[w], q.wait[w] = e, q.wait[i]
		}
		w++
	}
	removed := len(q.ents) - w
	q.truncate(w)
	return removed
}

// Each visits every queued entry oldest-first without removing any;
// the runtime invariant checker uses it to audit queue membership.
func (q *Queue) Each(visit func(e *alist.Entry)) {
	for _, e := range q.ents {
		visit(e)
	}
}

// CountCtx returns the number of queued entries belonging to ctx, by
// a scan: the core keeps its own per-context occupancy for the ICOUNT
// orderings, and audits it against this.
func (q *Queue) CountCtx(ctx int) int {
	n := 0
	for _, e := range q.ents {
		if int(e.Ctx) == ctx {
			n++
		}
	}
	return n
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
