// Package iq implements the instruction queues that hold dispatched
// instructions until their register operands are ready and a functional
// unit is free.  The baseline machine has two 64-entry queues (integer
// and floating point); issue selection is oldest-first in dispatch
// order, matching the paper's baseline.
package iq

import (
	"recyclesim/internal/alist"
	"recyclesim/internal/isa"
)

// Queue is one instruction queue.
type Queue struct {
	cap  int
	ents []*alist.Entry

	// counts caches per-context occupancy so the ICOUNT fetch and
	// rename priority policies read it in O(1) instead of scanning the
	// queue (grown on demand to the highest context id seen).
	counts []int
}

// New returns an empty queue with the given capacity.
func New(capacity int) *Queue {
	return &Queue{cap: capacity, ents: make([]*alist.Entry, 0, capacity)}
}

// Reset empties the queue, keeping its storage.
func (q *Queue) Reset() {
	clear(q.ents)
	q.ents = q.ents[:0]
	clear(q.counts)
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
func (q *Queue) Len() int { return len(q.ents) }

// Full reports whether dispatch must stall.
func (q *Queue) Full() bool { return len(q.ents) >= q.cap }

// Push inserts a dispatched entry; it reports false when full.
func (q *Queue) Push(e *alist.Entry) bool {
	if q.Full() {
		return false
	}
	q.ents = append(q.ents, e)
	q.bump(e.Ctx, 1)
	return true
}

// Scan visits entries oldest-first.  The visitor returns true to
// remove the entry (it issued or was cancelled).  Scan preserves the
// relative order of retained entries.
func (q *Queue) Scan(visit func(e *alist.Entry) (remove bool)) {
	out := q.ents[:0]
	for _, e := range q.ents {
		if !visit(e) {
			out = append(out, e)
		} else {
			q.bump(e.Ctx, -1)
		}
	}
	// Clear the tail so removed entries don't pin memory.
	for i := len(out); i < len(q.ents); i++ {
		q.ents[i] = nil
	}
	q.ents = out
}

// RemoveIf deletes all entries matching the predicate (squash support).
func (q *Queue) RemoveIf(match func(e *alist.Entry) bool) int {
	removed := 0
	q.Scan(func(e *alist.Entry) bool {
		if match(e) {
			removed++
			return true
		}
		return false
	})
	return removed
}

// Each visits every queued entry oldest-first without removing any;
// the runtime invariant checker uses it to audit queue membership.
func (q *Queue) Each(visit func(e *alist.Entry)) {
	for _, e := range q.ents {
		visit(e)
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
