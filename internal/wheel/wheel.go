// Package wheel implements the core's completion event wheel: a
// cycle-indexed calendar of in-flight executions keyed by the cycle
// their result becomes available.  Popping a cycle's completions costs
// time proportional to the number of completions due that cycle, not to
// the number of instructions in flight (the previous design scanned the
// whole in-flight list every cycle).
//
// Deletion is lazy: a squash does not search the wheel.  Stale items
// (entries squashed, re-renamed, or already completed since they were
// scheduled) are filtered by the owner's revalidation callback when
// their slot drains.  See the "exec/pending-store liveness" discussion
// in internal/core/invariant.go for why this is sound.
package wheel

import (
	"slices"

	"recyclesim/internal/alist"
)

// Item is one scheduled completion: the entry and the cycle its slot
// drains.  Due is the scheduling cycle, not necessarily the entry's
// ReadyAt (scheduling clamps to at least the cycle after insertion).
type Item struct {
	E   *alist.Entry
	Due uint64
}

// Wheel is the calendar.  Slots cover the next `horizon` cycles;
// anything scheduled further out (which cannot happen with the
// simulator's bounded latencies, but is handled for robustness) goes to
// the far list and is re-examined as its cycle arrives.
type Wheel struct {
	slots [][]Item
	mask  uint64
	far   []Item
	due   []Item // PopDue's result, reused
	count int    // scheduled, not yet drained (stale items included)
}

// Horizon returns the slot-ring span in cycles.
func (w *Wheel) Horizon() int { return len(w.slots) }

// Len returns the number of scheduled, undrained items (stale entries
// awaiting lazy deletion included).
func (w *Wheel) Len() int { return w.count }

// Schedule files entry e to pop at cycle max(due, now+1).  Completion
// stages run before issue in a cycle, so nothing scheduled at cycle
// `now` could drain before `now+1` anyway; the clamp makes that
// explicit and keeps every filed item in the future.
func (w *Wheel) Schedule(e *alist.Entry, due, now uint64) {
	if due <= now {
		due = now + 1
	}
	w.count++
	if due-now >= uint64(len(w.slots)) {
		w.far = append(w.far, Item{E: e, Due: due})
		return
	}
	w.slots[due&w.mask] = append(w.slots[due&w.mask], Item{E: e, Due: due})
}

// PopDue removes every item due at cycle `now` and returns them in the
// wheel's reused scratch, valid until the next PopDue.  Items in the
// slot belonging to a later lap of the ring are retained; far items
// whose cycle has come are drained too, after the slot's.  Order
// within a cycle is insertion order and is NOT a determinism boundary:
// the core sorts the drained batch by (ctx, seq) before acting on it.
// Returning the batch, rather than calling back per item, keeps the
// drain a plain loop in the caller.
func (w *Wheel) PopDue(now uint64) []Item {
	slot, due := w.slots[now&w.mask], w.due[:0]
	keep := slot[:0]
	for _, it := range slot {
		if it.Due == now {
			due = append(due, it)
		} else {
			keep = append(keep, it)
		}
	}
	// The drained items past keep are not cleared: every entry the
	// core files is a slot of an active-list ring it owns for its
	// life, so a stale pointer pins nothing.
	w.slots[now&w.mask] = keep

	if len(w.far) != 0 {
		due = w.drainFar(now, due)
	}
	w.count -= len(due)
	w.due = due
	return due
}

// drainFar appends the far items due at now to due and files the ones
// now within the horizon on the ring.
func (w *Wheel) drainFar(now uint64, due []Item) []Item {
	far := w.far[:0]
	for _, it := range w.far {
		switch {
		case it.Due == now:
			due = append(due, it)
		case it.Due-now < uint64(len(w.slots)):
			// Close enough to file on the ring now.
			w.slots[it.Due&w.mask] = append(w.slots[it.Due&w.mask], it)
		default:
			far = append(far, it)
		}
	}
	for i := len(far); i < len(w.far); i++ {
		w.far[i] = Item{}
	}
	w.far = far
	return due
}

// Each visits every scheduled item (stale ones included); the runtime
// invariant checker uses it to audit wheel membership.
func (w *Wheel) Each(visit func(Item)) {
	for _, slot := range w.slots {
		for _, it := range slot {
			visit(it)
		}
	}
	for _, it := range w.far {
		visit(it)
	}
}

// Reset empties the wheel and sizes its slot ring to cover at least
// `horizon` future cycles (rounded up to a power of two), keeping the
// slots' storage.  It returns w.
func (w *Wheel) Reset(horizon int) *Wheel {
	n := 1
	for n < horizon {
		n <<= 1
	}
	w.slots = slices.Grow(w.slots[:0], n)[:n]
	for i := range w.slots {
		clear(w.slots[i])
		w.slots[i] = w.slots[i][:0]
	}
	w.far = w.far[:0]
	clear(w.due)
	w.due = w.due[:0]
	w.mask = uint64(n - 1)
	w.count = 0
	return w
}
