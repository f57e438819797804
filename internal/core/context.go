package core

import (
	"slices"

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

// fqEntry is one fetched, decoded instruction waiting for rename.  Its
// prediction (zero for a non-branch) carries the direction and target
// fetch followed.
type fqEntry struct {
	pc         uint64
	inst       isa.Inst
	pred       bpred.Pred
	fetchCycle uint64 // cycle it entered the fetch queue (for pipetrace)
	readyAt    uint64 // cycle it clears decode and may rename
	postMerge  bool   // fetched beyond an in-progress recycle stream
}

// storeQueue holds a context's uncommitted stores in program (sequence)
// order as a ring of their active-list entries: stores enter at the
// back at dispatch, retire from the front at commit, and squash from
// the back.  Stores issue in two phases like real hardware, and both
// phases' facts live on the entry: address generation (Issued, Addr)
// as soon as the base register is ready, data capture (Result, and a
// ReadyAt other than dataPending) when the data register arrives.
// Loads disambiguate against issued stores and forward only from ones
// with their data.
//
// The ring never grows — uncommitted stores are bounded by the
// active-list capacity — so steady-state operation is allocation-free
// and commit is O(1) instead of the tail memmove a slice delete costs.
// Its storage is rounded up to a power of two, as the active list's
// is, so a position maps to its slot with a mask instead of a
// division.
type storeQueue struct {
	ents []*alist.Entry
	mask int // len(ents)-1
	head int
	n    int
}

// reset empties q and sizes its ring for capacity stores, keeping the
// ring when it is large enough: push overwrites every slot it fills.
func (q *storeQueue) reset(capacity int) {
	n := 1
	for n < capacity {
		n <<= 1
	}
	*q = storeQueue{ents: slices.Grow(q.ents[:0], n)[:n], mask: n - 1}
}

func (q *storeQueue) len() int { return q.n }

// at returns the i-th store in program order (0 = oldest).
func (q *storeQueue) at(i int) *alist.Entry {
	return q.ents[(q.head+i)&q.mask]
}

// push appends a dispatched store.  Rename allocates an active-list
// slot first, so the ring (at least the active list's size) cannot be
// full here.
func (q *storeQueue) push(e *alist.Entry) {
	if q.n == len(q.ents) {
		panic("core: store queue overflow")
	}
	q.ents[(q.head+q.n)&q.mask] = e
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

// dropFrom removes every store with seq >= from (squash support; the
// ring is seq-ordered, so this pops from the back).
func (q *storeQueue) dropFrom(from uint64) {
	for q.n > 0 && q.at(q.n-1).Seq >= from {
		q.n--
	}
}

// compact keeps only stores accepted by keep, preserving order
// (cancelIssue drops never-issuing stores from the middle).
func (q *storeQueue) compact(keep func(*alist.Entry) bool) {
	w := 0
	for i := 0; i < q.n; i++ {
		if s := q.at(i); keep(s) {
			q.ents[(q.head+w)&q.mask] = s
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
	traceTgt   uint64 // target the trace followed (branches)
	pred       bpred.Pred
	traceTaken bool // direction the trace followed (branches)
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

// Context is one hardware context of the SMT/TME machine.  The two
// arrays, the map table and the fetch queue, come last, so the scalar
// state the per-cycle scans read shares a few cache lines instead of
// sitting on either side of 2.5 KB of queued instructions.
type Context struct {
	id    int
	part  *Partition
	state CtxState

	// Fetch state.  The fetch queue (fq, below) is a fixed ring:
	// pushes at fetch, pops at rename, wholesale clears on squash —
	// none of it allocates.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool
	altCapped       bool // alternate hit the path-length limit
	fqHead          int
	fqN             int

	// Rename state.  The map table, mapTab, is below; it holds
	// registers exactly when it is not noMap.
	al alist.List
	mp recycle.MergePoints

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

	mapTab [isa.NumRegs]regfile.PhysReg
	fq     [fetchQueueCap]fqEntry
}

// reset makes t the idle context id with no partition, its active
// list and store queue sized for alSize entries: storage t holds is
// kept where it is large enough.
func (t *Context) reset(id, alSize int) {
	t.al.Reset(alSize)
	t.sq.reset(alSize)
	*t = Context{id: id, al: t.al, sq: t.sq, streamBuf: slices.Grow(t.streamBuf[:0], alSize), parentCtx: -1, mapTab: noMap}
}

// noMap is a map table with no register mapped.
var noMap = func() (m [isa.NumRegs]regfile.PhysReg) {
	for i := range m {
		m[i] = regfile.NoReg
	}
	return m
}()

// mapOf returns the physical mapping of a logical register (NoReg for
// the hardwired zero register).
func (t *Context) mapOf(r isa.Reg) regfile.PhysReg {
	if r == isa.RegZero {
		return regfile.NoReg
	}
	return t.mapTab[r]
}

// icount approximates the number of this context's instructions in the
// front half of the pipeline, given its instruction-queue occupancy;
// the fetch priority policy orders threads by it (§3.3).
func (t *Context) icount(inIQ int32) int32 { return int32(t.fqN) + inIQ }

// fetchable reports whether t's own path lets it fetch: its program
// has not halted, and it has not fetched a halt or hit the
// alternate-path limit.
func (t *Context) fetchable() bool { return !t.part.done && !t.fetchHalted && !t.altCapped }

// fqRoom reports how many more fetched instructions fit.
func (t *Context) fqRoom() int { return fetchQueueCap - t.fqN }

// fqLen returns the number of queued fetched instructions.
func (t *Context) fqLen() int { return t.fqN }

// fqAt returns the i-th queued instruction (0 = oldest).
func (t *Context) fqAt(i int) *fqEntry { return &t.fq[(t.fqHead+i)&(fetchQueueCap-1)] }

// Partition is one program and the group of contexts serving it: one
// primary thread plus spare contexts for alternate paths (the MSB
// partitioning of §2).  id is the program's index in the core's
// program list; mask has bit i set for each context i it holds, and
// the core's primary mask says which of them is the primary thread.
type Partition struct {
	id   int
	prog *program.Program
	mem  *program.Memory // the program's architectural data memory
	mask uint16
	done bool // the program committed its halt
}
