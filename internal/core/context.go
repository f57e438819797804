package core

import (
	"recyclesim/internal/alist"
	"recyclesim/internal/bpred"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
	"recyclesim/internal/recycle"
	"recyclesim/internal/regfile"
)

// CtxState is a hardware context's lifecycle state.
type CtxState uint8

// Context states.  The recycle architecture's key addition over TME is
// CtxInactive: "An inactive context has finished executing, but the
// active list and registers have not been freed, making it available
// for recycling."
const (
	// CtxIdle: no thread; registers and active list free.
	CtxIdle CtxState = iota
	// CtxActive: executing the primary or an alternate path.
	CtxActive
	// CtxDraining: alternate whose forking branch resolved (correctly
	// predicted) but which continues fetching per the §5.2 fetch/nostop
	// policies until it hits the alternate-path instruction limit.
	CtxDraining
	// CtxInactive: finished executing; trace retained for recycling.
	CtxInactive
	// CtxRetiring: ex-primary draining its pre-fork instructions after
	// a mispredict promoted its alternate; no fetch, commits only.
	CtxRetiring

	numCtxStates = iota
)

// String names the state for diagnostics.
func (s CtxState) String() string {
	switch s {
	case CtxIdle:
		return "idle"
	case CtxActive:
		return "active"
	case CtxDraining:
		return "draining"
	case CtxInactive:
		return "inactive"
	case CtxRetiring:
		return "retiring"
	}
	return "ctx?"
}

// fqEntry is one fetched, decoded instruction waiting for rename.
type fqEntry struct {
	pc         uint64
	inst       isa.Inst
	pred       bpred.Pred
	predTaken  bool
	predTgt    uint64
	fetchCycle uint64 // cycle it entered the fetch queue (for pipetrace)
	readyAt    uint64 // cycle it clears decode and may rename
	postMerge  bool   // fetched beyond an in-progress recycle stream
}

// sqEntry is one in-flight store in a context's store queue.  Stores
// issue in two phases like real hardware: address generation as soon as
// the base register is ready (addrOK), data capture when the data
// register arrives (valOK).  Loads disambiguate against addrOK stores
// and forward only from valOK ones.
type sqEntry struct {
	seq    uint64
	addr   uint64
	val    uint64
	addrOK bool
	valOK  bool
}

// storeQueue holds a context's uncommitted stores in program (sequence)
// order as a ring: stores enter at the back at rename, retire from the
// front at commit, and squash from the back.  The ring never grows —
// uncommitted stores are bounded by the active-list capacity — so
// steady-state operation is allocation-free and commit is O(1) instead
// of the tail memmove a slice delete costs.  Its storage is rounded up
// to a power of two, as the active list's is, so a position maps to
// its slot with a mask instead of a division.
type storeQueue struct {
	ents []sqEntry
	mask int // len(ents)-1
	head int
	n    int
}

func newStoreQueue(capacity int) storeQueue {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return storeQueue{ents: make([]sqEntry, n), mask: n - 1}
}

func (q *storeQueue) len() int { return q.n }

// at returns the i-th store in program order (0 = oldest).
func (q *storeQueue) at(i int) *sqEntry {
	return &q.ents[(q.head+i)&q.mask]
}

// push appends a renamed store.  Rename allocates an active-list slot
// first, so the ring (at least the active list's size) cannot be full
// here.
func (q *storeQueue) push(seq uint64) {
	if q.n == len(q.ents) {
		panic("core: store queue overflow")
	}
	*q.at(q.n) = sqEntry{seq: seq}
	q.n++
}

// popFront retires the oldest store.
func (q *storeQueue) popFront() {
	if q.n == 0 {
		panic("core: popFront on empty store queue")
	}
	q.head = (q.head + 1) & q.mask
	q.n--
}

// find returns the store with the given sequence number, or nil.
func (q *storeQueue) find(seq uint64) *sqEntry {
	for i := 0; i < q.n; i++ {
		if s := q.at(i); s.seq == seq {
			return s
		}
	}
	return nil
}

// dropFrom removes every store with seq >= from (squash support; the
// ring is seq-ordered, so this pops from the back).
func (q *storeQueue) dropFrom(from uint64) {
	for q.n > 0 && q.at(q.n-1).seq >= from {
		q.n--
	}
}

// compact keeps only stores accepted by keep, preserving order
// (cancelIssue drops never-issuing stores from the middle).
func (q *storeQueue) compact(keep func(*sqEntry) bool) {
	w := 0
	for i := 0; i < q.n; i++ {
		s := q.at(i)
		if keep(s) {
			*q.at(w) = *s
			w++
		}
	}
	q.n = w
}

// clear empties the queue (context reclaim).
func (q *storeQueue) clear() { q.head, q.n = 0, 0 }

// streamItem is one instruction of a recycle stream: a snapshot of an
// active-list entry taken when the merge was detected.  srcSeq points
// back at the live source entry so reuse can consult its current state.
//
// Branch items also carry the prediction assigned when the stream was
// built: the paper's merge mechanism runs the trace through the branch
// predictor up front ("the global history register used for branch
// prediction is then updated with that prediction"), stopping the
// stream at the first disagreement, so post-stream fetch sees a
// complete speculative history.
type streamItem struct {
	pc         uint64
	inst       isa.Inst
	srcSeq     uint64
	traceTaken bool   // direction the trace followed (branches)
	traceTgt   uint64 // target the trace followed (branches)
	pred       bpred.Pred
}

// recycleStream feeds snapshot instructions into a consumer thread's
// rename stage.
type recycleStream struct {
	items  []streamItem
	pos    int
	srcCtx int  // source context for reuse lookups; -1 disables reuse
	back   bool // backward-branch merge (reuse disallowed, §3.5)
	nextPC uint64
	// preDrain counts fetched instructions already queued ahead of the
	// stream; they must clear rename before stream items inject
	// ("subsequent instructions will come from the alternate active
	// list once the prior fetched instructions ... have cleared the
	// rename stage").
	preDrain int
}

func (s *recycleStream) done() bool { return s.pos >= len(s.items) }

// forkPath records per-alternate-path statistics accumulated between
// spawn and deletion (Table 1 columns 4-7).
type forkPath struct {
	live       bool
	usedTME    bool
	recycled   bool
	respawned  bool
	merges     int
	spawnCycle uint64 // cycle the path was spawned (fork-lifetime telemetry)
}

// Context is one hardware context of the SMT/TME machine.
type Context struct {
	id    int
	part  *Partition
	state CtxState

	isPrimary bool

	// Fetch state.  The fetch queue is a fixed ring: pushes at fetch,
	// pops at rename, wholesale clears on squash — none of it
	// allocates.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool
	altCapped       bool // alternate hit the path-length limit
	fq              [fetchQueueCap]fqEntry
	fqHead          int
	fqN             int

	// Rename state.
	hasMap bool
	mapTab [isa.NumRegs]regfile.PhysReg
	al     *alist.List
	mp     recycle.MergePoints

	// Store queue (program order, uncommitted stores).
	sq storeQueue

	// Speculative ancestry: this context's first instruction follows
	// parent's entry parentSeq (the forking branch).  Commit is gated
	// until the parent commits that entry.  kids is the reverse link:
	// bit c is set while ctxs[c].parentCtx is this context
	// (activateAlternate sets it, unlinkParent clears it).
	parentCtx int
	parentSeq uint64
	kids      uint16

	// Alternate-path bookkeeping.
	pathLen int    // instructions fetched down this alternate path
	spawnPC uint64 // first PC of the path
	path    forkPath

	// Recycle consumption.  stream points at streamStore when live;
	// streamBuf is the context-owned scratch the stream's items live in
	// (one stream per consumer at a time, so both are safely reusable).
	stream      *recycleStream
	streamStore recycleStream
	streamBuf   []streamItem

	// Reuse gating: uncommitted primary entries currently reusing this
	// context's register mappings (§3.5 reclaim constraint).
	outstandingReuse int

	lruTick uint64
}

// newContext allocates a context's rings; Core.Load gives it its
// starting state.
func newContext(id int, alSize int) *Context {
	return &Context{
		id:        id,
		al:        alist.New(alSize),
		sq:        newStoreQueue(alSize),
		streamBuf: make([]streamItem, 0, alSize),
	}
}

// reset returns the context to idle with no partition, keeping its
// active list, store queue and stream buffer storage.
func (t *Context) reset() {
	t.al.Reset()
	t.sq.clear()
	*t = Context{id: t.id, al: t.al, sq: t.sq, streamBuf: t.streamBuf[:0], parentCtx: -1}
	for i := range t.mapTab {
		t.mapTab[i] = regfile.NoReg
	}
}

// mapOf returns the physical mapping of a logical register (NoReg for
// the hardwired zero register).
func (t *Context) mapOf(r isa.Reg) regfile.PhysReg {
	if r == isa.RegZero {
		return regfile.NoReg
	}
	return t.mapTab[r]
}

// icount approximates the number of this context's instructions in the
// front half of the pipeline; the fetch and recycle priority policies
// order threads by it (§3.3).
func (t *Context) icount(inIQ int) int { return t.fqN + inIQ }

// fqRoom reports how many more fetched instructions fit.
func (t *Context) fqRoom() int { return fetchQueueCap - t.fqN }

// fqLen returns the number of queued fetched instructions.
func (t *Context) fqLen() int { return t.fqN }

// fqAt returns the i-th queued instruction (0 = oldest).
func (t *Context) fqAt(i int) *fqEntry { return &t.fq[(t.fqHead+i)%fetchQueueCap] }

// fqPush appends a slot for one fetched instruction and returns it.
func (t *Context) fqPush() *fqEntry {
	if t.fqN == fetchQueueCap {
		panic("core: fetch queue overflow")
	}
	e := t.fqAt(t.fqN)
	t.fqN++
	return e
}

// fqPop drops the oldest queued instruction (it renamed).
func (t *Context) fqPop() {
	if t.fqN == 0 {
		panic("core: fqPop on empty fetch queue")
	}
	t.fqHead = (t.fqHead + 1) % fetchQueueCap
	t.fqN--
}

// fqClear empties the fetch queue (squash or context reclaim).
func (t *Context) fqClear() { t.fqHead, t.fqN = 0, 0 }

// Partition is one program and the group of contexts serving it: one
// primary thread plus spare contexts for alternate paths (the MSB
// partitioning of §2).  id is the program's index in the core's
// program list.
type Partition struct {
	id      int
	prog    *program.Program
	mem     *program.Memory // the program's architectural data memory
	primary int             // context id of the primary thread
	ctxIDs  []int           // all contexts in this partition
	mask    uint16
	done    bool // the program committed its halt
}
