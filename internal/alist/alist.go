// Package alist implements the per-context active lists of the SMT/TME
// processor.  An active list is the context's in-order record of
// renamed instructions (a reorder buffer in other terminology), and in
// the recycling architecture it does double duty as trace storage: per
// §2 of the paper each entry holds the decoded instruction and both the
// old register mapping (freed when the entry commits) and the new
// mapping (freed when the entry is squashed), plus the execution state
// recycling and reuse need.
//
// Entries are retained after commit until the ring needs the slot, so
// the primary thread's own recent history is available for
// backward-branch (loop) recycling — "only loops smaller than the
// current active lists are able to benefit from the backward branch
// recycling."
package alist

import (
	"slices"

	"recyclesim/internal/bpred"
	"recyclesim/internal/isa"
	"recyclesim/internal/regfile"
)

// Entry is one renamed instruction.  It is identified by (context,
// Seq); Seq increases by one per rename in the owning context and
// doubles as the ring index.  It is the only home of the instruction's
// in-flight state: the core's instruction queues, store queue and
// completion lists hold pointers to it, not copies, and whether it has
// committed is whether Seq is below its list's CommitSeq.
//
// Every active-list slot holds one, and Push clears a slot per
// rename, so the fields are grouped by width: the words first, then
// the 32-bit register names and trace handle, then the byte-sized
// context ids and flags packed together at the end.  That is 128
// bytes, two cache lines; interleaving the flags with the words pads
// it out.
type Entry struct {
	Seq  uint64
	PC   uint64
	Inst isa.Inst

	// Execution results.
	Result uint64
	Addr   uint64 // effective address for memory operations
	NextPC uint64 // resolved next PC

	// Timing.
	ReadyAt uint64 // cycle the result becomes available (once Executed)

	// Branch prediction state carried for recovery and training; the
	// direction and target fetch followed are Pred.Taken and
	// Pred.Target.
	Pred bpred.Pred

	// Renaming state.
	NewMap regfile.PhysReg // destination mapping (NoReg when no dest)
	OldMap regfile.PhysReg // displaced mapping, freed at commit
	Src1   regfile.PhysReg // physical source for Rs1 (NoReg => constant zero)
	Src2   regfile.PhysReg // physical source for Rs2

	// Trace is the pipetrace handle assigned at rename (0 when the
	// entry is untraced; see internal/obs/pipetrace).  Push's slot
	// reset clears it, so recycled ring slots never inherit a stale
	// handle.
	Trace int32

	// Context ids are below 16 (config.Machine.Validate), so a byte
	// holds one.
	Ctx int8

	// AltCtx is the alternate context a TME fork spawned (when Forked).
	AltCtx int8

	// ReuseSrc is the context whose trace supplied a reused result
	// (-1 when the entry is not reused).
	ReuseSrc int8

	// Status flags.
	Dispatched bool // entered the instruction queue
	Issued     bool // sent to a functional unit (a store: its address is known)
	Executed   bool
	Reused     bool // bypassed issue/execute via instruction reuse
	NoIssue    bool // alternate-path policy cancelled execution
	Taken      bool // resolved branch direction
	Forked     bool // a TME fork spawned AltCtx off this branch
}

// TraceTaken returns the direction this entry's branch follows in the
// stored trace: the resolved direction when it executed, otherwise the
// prediction it was fetched under.  Recycling compares the current
// prediction against this to decide whether to keep following the
// trace (§3.4's "latter method").
func (e *Entry) TraceTaken() bool {
	if e.Executed {
		return e.Taken
	}
	return e.Pred.Taken
}

// List is one context's active list: a ring of Capacity entries
// addressed by absolute sequence number.
//
//	start  — oldest retained entry (committed entries linger here)
//	commit — oldest uncommitted entry
//	tail   — next sequence number to be allocated
//
// The ring's storage is rounded up to a power of two so a sequence
// number maps to its slot with a mask instead of a division.  At most
// Capacity entries are retained, so they occupy distinct slots, and the
// spare slots only delay when a slot is reused.
type List struct {
	cap   int
	ents  []Entry
	mask  uint64 // len(ents)-1
	start uint64
	cmt   uint64
	tail  uint64
}

// Reset empties the list and sets its capacity, keeping its ring when
// it is large enough.  Push overwrites every entry it hands out, so the
// entries a smaller list leaves behind are never read.  It returns l.
func (l *List) Reset(capacity int) *List {
	n := 1
	for n < capacity {
		n <<= 1
	}
	*l = List{cap: capacity, ents: slices.Grow(l.ents[:0], n)[:n], mask: uint64(n - 1)}
	return l
}

// Capacity returns the ring size.
func (l *List) Capacity() int { return l.cap }

// Clear empties the list completely (context reclaim).
func (l *List) Clear() {
	l.start, l.cmt, l.tail = 0, 0, 0
}

func (l *List) slot(seq uint64) *Entry { return &l.ents[seq&l.mask] }

// Push allocates the next entry, evicting the oldest retained-committed
// entry if the ring is full of history.  It fails (nil, false) when the
// ring is full of uncommitted entries.  evictedSeq reports the sequence
// number of a dropped retained entry (^uint64(0) when none), which the
// owner uses to invalidate merge points into that entry.
func (l *List) Push() (e *Entry, evictedSeq uint64, ok bool) {
	evictedSeq = ^uint64(0)
	if l.tail-l.start == uint64(l.cap) {
		if l.cmt == l.start {
			return nil, evictedSeq, false // full of live entries
		}
		evictedSeq = l.start
		l.start++
	}
	e = l.slot(l.tail)
	*e = Entry{Seq: l.tail}
	l.tail++
	return e, evictedSeq, true
}

// At returns the entry with the given sequence number if it is still
// retained (committed history included).
func (l *List) At(seq uint64) (*Entry, bool) {
	if seq < l.start || seq >= l.tail {
		return nil, false
	}
	return l.slot(seq), true
}

// Head returns the oldest uncommitted entry.
func (l *List) Head() (*Entry, bool) {
	if l.cmt == l.tail {
		return nil, false
	}
	return l.slot(l.cmt), true
}

// CommitHead commits the oldest uncommitted entry: it advances the
// commit pointer past it (the entry is retained as history).
func (l *List) CommitHead() {
	if l.cmt == l.tail {
		panic("alist: CommitHead on empty window")
	}
	l.cmt++
}

// PopBack removes the youngest entry and returns it, when it is
// uncommitted and its Seq is at least seq; otherwise it reports false
// and leaves the list as it is.  A squash pops its range youngest
// first, undoing each entry as it comes off (the entry stays readable
// until its slot is pushed again); retained history never goes below
// the new tail.
func (l *List) PopBack(seq uint64) (*Entry, bool) {
	if l.tail == l.cmt || l.tail <= seq {
		return nil, false
	}
	l.tail--
	l.start = min(l.start, l.tail)
	return l.slot(l.tail), true
}

// FirstSeq returns the sequence number of the oldest retained entry.
func (l *List) FirstSeq() uint64 { return l.start }

// CommitSeq returns the sequence number of the oldest uncommitted entry.
func (l *List) CommitSeq() uint64 { return l.cmt }

// TailSeq returns the next sequence number to be allocated.
func (l *List) TailSeq() uint64 { return l.tail }

// InFlight returns the number of uncommitted entries.
func (l *List) InFlight() int { return int(l.tail - l.cmt) }

// Len returns the number of retained entries (committed history plus
// the uncommitted window).
func (l *List) Len() int { return int(l.tail - l.start) }

// FirstPC returns the PC of the first retained instruction, the merge
// point §3.2 stores with each hardware context.  ok is false for an
// empty list.
func (l *List) FirstPC() (uint64, bool) {
	if l.tail == l.start {
		return 0, false
	}
	return l.slot(l.start).PC, true
}

// FindPC searches retained entries oldest-first for the given PC and
// returns its sequence number; used to establish backward-branch merge
// points when a loop branch enters the list.
func (l *List) FindPC(pc uint64) (uint64, bool) {
	for s := l.start; s < l.tail; s++ {
		if l.slot(s).PC == pc {
			return s, true
		}
	}
	return 0, false
}
