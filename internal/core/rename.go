package core

import (
	"math/bits"

	"recyclesim/internal/alist"
	"recyclesim/internal/config"
	"recyclesim/internal/iq"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/regfile"
)

// rename merges the two instruction sources into the shared rename
// stage: fetched instructions have priority for slots, recycled
// instructions fill what remains ("We give highest priority to
// instructions from the fetched paths, filling in empty slots with
// recycled instructions"), and program order is preserved per thread
// across both sources.
func (c *Core) rename() {
	slots := c.mach.RenameWidth

	// Round 1: fetched instructions, threads ordered by front-end
	// occupancy (lower first).
	order := c.renameOrder(false)
	for _, cand := range order {
		t := c.ctxs[cand.id()]
		for slots > 0 {
			fe, ok := t.nextFetched()
			if !ok || fe.readyAt > c.cycle {
				break
			}
			if !c.renameFetched(t, fe) {
				break // structural stall; retry next cycle
			}
			c.popFetched(t)
			slots--
			c.slotFetched++
		}
	}

	// Round 2: recycled instructions.  "When multiple threads want to
	// recycle, a separate instruction counter is used to determine the
	// priority of those threads for insertion into the rename stage."
	order = c.renameOrder(true)
	for _, cand := range order {
		t := c.ctxs[cand.id()]
		for slots > 0 && t.stream != nil && t.stream.preDrain == 0 {
			st := t.stream
			if st.done() {
				c.endStream(t)
				break
			}
			if c.renameRecycled(t, &st.items[st.pos]) {
				break // structural stall: retry next cycle
			}
			slots--
			c.slotRecycled++
			st.pos++
			if st.done() {
				c.endStream(t)
			}
		}
	}
}

// renameOrder returns the threads eligible to rename this round,
// primary threads ahead of alternates (matching the TME-modified
// ICOUNT fetch priority — alternates must not steal rename bandwidth
// from the paths that retire work) and by queue occupancy within each
// class.  The fetch round (first pass) takes threads with a fetched
// instruction queued, the recycle round (second pass) threads with an
// active stream.  The result lives in the core's reusable candidate
// scratch (valid until the next ordering is built).
func (c *Core) renameOrder(recycleRound bool) []ctxCand {
	ready := c.fetched
	if recycleRound {
		ready = c.streaming
	}
	n := 0
	for m := (c.inState[CtxActive] | c.inState[CtxDraining]) & ready; m != 0; m &= m - 1 {
		id := bits.TrailingZeros16(m)
		n = c.addCand(n, c.candKey(id, c.occ[id]))
	}
	return c.cands[:n]
}

// nextFetched returns the thread's next renameable fetched entry,
// honouring stream ordering: pre-merge entries drain first; post-merge
// entries wait until the stream completes.
func (t *Context) nextFetched() (*fqEntry, bool) {
	if t.fqLen() == 0 {
		return nil, false
	}
	fe := t.fqAt(0)
	if t.stream != nil {
		if t.stream.preDrain == 0 {
			return nil, false // stream's turn
		}
	}
	if fe.postMerge {
		return nil, false
	}
	return fe, true
}

func (c *Core) popFetched(t *Context) {
	c.fqPop(t)
	if t.stream != nil && t.stream.preDrain > 0 {
		t.stream.preDrain--
	}
}

// allocEntry performs the structural work shared by fetched and
// recycled rename: active-list slot, physical register, sources, the
// fetch-N mark, and merge-point bookkeeping.  It returns nil when the
// thread must stall.
func (c *Core) allocEntry(t *Context, pc uint64, in *isa.Inst) *alist.Entry {
	// Reserve queue space before allocating anything.
	if in.Executes() {
		q := &c.iqInt
		if iq.ForClass(in.Class()) {
			q = &c.iqFP
		}
		if q.Full() {
			c.Stats.IQFullStalls++
			c.noteStall(t, obs.CauseIQFull, pc)
			return nil
		}
	}
	var newMap regfile.PhysReg = regfile.NoReg
	if in.WritesReg() {
		r, ok := c.rf.Alloc(in.Rd.IsFP())
		if !ok {
			c.Stats.RenameStallRegs++
			c.noteStall(t, obs.CauseRenameRegs, pc)
			// Recycling "puts additional pressure on the renaming
			// registers" (§4.1); the pressure valve reclaims the
			// globally least-recently-used inactive context.
			c.reclaimLRU(c.inState[CtxInactive], false, obs.CauseRenameRegs)
			return nil
		}
		newMap = r
	}
	e, evicted, ok := t.al.Push()
	if !ok {
		if newMap != regfile.NoReg {
			c.rf.Release(newMap)
		}
		c.Stats.RenameStallAL++
		c.noteStall(t, obs.CauseRenameAL, pc)
		return nil
	}
	if evicted != ^uint64(0) && c.feat.Recycle {
		t.mp.DropSeq(evicted)
		// Re-anchor the first-PC merge point at the new oldest entry.
		if fpc, ok := t.al.FirstPC(); ok {
			t.mp.SetFirst(fpc, t.al.FirstSeq())
		}
	}

	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageRename,
			Ctx: int16(t.id), Seq: e.Seq, PC: pc, Arg: uint64(in.Op)})
	}
	e.Ctx = int8(t.id)
	e.PC = pc
	e.Inst = *in
	e.ReuseSrc = -1
	e.AltCtx = -1
	e.Src1, e.Src2 = t.entrySources(in)
	e.OldMap = regfile.NoReg
	e.NewMap = newMap
	if in.WritesReg() {
		e.OldMap = t.mapTab[in.Rd]
		t.mapTab[in.Rd] = newMap
	}
	if t.state == CtxDraining && c.feat.AltPolicy == config.AltFetch {
		// fetch-N policy: instructions renamed after resolution never
		// issue.
		e.NoIssue = true
	}

	// Merge-point bookkeeping (§3.2); only recycling reads the points.
	if c.feat.Recycle {
		if e.Seq == t.al.FirstSeq() {
			t.mp.SetFirst(pc, e.Seq)
		}
		// Backward control transfers (loop-closing branches and jumps)
		// establish the context's backward merge point when the loop
		// head is still retained: "only loops smaller than the current
		// active lists are able to benefit from the backward branch
		// recycling."
		if (in.IsCondBranch() || in.Op == isa.OpJ) && in.Target < pc {
			if seq, found := t.al.FindPC(in.Target); found {
				t.mp.SetBack(in.Target, seq)
			}
		}
	}

	c.Stats.Renamed++
	return e
}

// dispatch sends a renamed entry to its instruction queue (or marks it
// immediately executed when it needs no execution).
func (c *Core) dispatch(t *Context, e *alist.Entry) {
	in := &e.Inst
	if !in.Executes() {
		// Direct jumps were fully resolved at fetch.
		e.Executed = true
		e.ReadyAt = c.cycle
		if in.Op == isa.OpJ {
			e.Taken = true
			e.NextPC = in.Target
		}
		return
	}
	if e.NoIssue {
		return
	}
	q := &c.iqInt
	if iq.ForClass(in.Class()) {
		q = &c.iqFP
	}
	if !q.Push(e) {
		// Capacity was checked in allocEntry within the same cycle.
		panic("core: instruction queue overflow after reservation")
	}
	c.occ[t.id]++
	e.Dispatched = true
	if c.ptrace != nil {
		c.ptrace.OnQueue(e.Trace, c.cycle)
	}
	if in.IsStore() {
		t.sq.push(e)
	}
}

// renameFetched renames one fetched instruction; false means stall.
func (c *Core) renameFetched(t *Context, fe *fqEntry) bool {
	e := c.allocEntry(t, fe.pc, &fe.inst)
	if e == nil {
		return false
	}
	e.Pred = fe.pred
	if c.ptrace != nil {
		e.Trace = c.ptrace.OnRename(c.cycle, t.id, e.Seq, e.PC, e.Inst, fe.fetchCycle, false)
	}
	c.markWritten(t, e, -1)
	c.dispatch(t, e)
	if c.mayFork(t, e) {
		c.tryFork(t, e)
	}
	return true
}

// markWritten records a new register instance by the primary in the
// written bit-array, when reuse keeps one.  reuseSrc >= 0 marks the
// reuse case, where the source context's own column stays clear (§3.5
// discussion).
func (c *Core) markWritten(t *Context, e *alist.Entry, reuseSrc int) {
	if c.written == nil || !e.Inst.WritesReg() || !c.isPrimary(t) {
		return
	}
	if reuseSrc >= 0 {
		c.written.MarkWrittenExcept(e.Inst.Rd, t.part.mask, reuseSrc)
		c.written.ClearFor(e.Inst.Rd, reuseSrc)
	} else {
		c.written.MarkWritten(e.Inst.Rd, t.part.mask)
	}
}

// renameRecycled renames one stream item into t.  Branch predictions
// were resolved when the stream was built, so this is pure injection:
// allocate, attempt reuse, dispatch, and consider a TME fork.  (A
// stream whose trace disagrees with the current prediction was already
// truncated when it was built.)  It reports whether the thread hit a
// structural hazard and should retry next cycle.
func (c *Core) renameRecycled(t *Context, it *streamItem) (stall bool) {
	st := t.stream

	e := c.allocEntry(t, it.pc, &it.inst)
	if e == nil {
		return true
	}
	e.Pred = it.pred
	if c.ptrace != nil {
		e.Trace = c.ptrace.OnRename(c.cycle, t.id, e.Seq, e.PC, e.Inst, 0, true)
	}
	c.Stats.Recycled++

	// Instruction reuse (§3.5): alternate→primary only, never on
	// backward-branch recycling, and only for instructions that
	// actually executed with unchanged operands.
	reused := false
	if c.feat.Reuse && st.srcCtx >= 0 && !st.back && c.isPrimary(t) {
		reused = c.tryReuse(t, e, st.srcCtx, it)
	}
	if reused {
		if c.ptrace != nil {
			c.ptrace.OnReuse(e.Trace)
		}
		c.markWritten(t, e, st.srcCtx)
	} else {
		c.markWritten(t, e, -1)
		c.dispatch(t, e)
	}

	if c.mayFork(t, e) {
		c.tryFork(t, e)
	}
	return false
}

// tryReuse attempts to reuse the old result of a recycled instruction:
// "If none of the operands of a recycled instruction have been changed,
// and the instruction was actually executed, the old computed value can
// be reused.  We accomplish this by re-using the old register mapping."
func (c *Core) tryReuse(t *Context, e *alist.Entry, srcCtx int, it *streamItem) bool {
	src := c.ctxs[srcCtx]
	se, ok := src.al.At(it.srcSeq)
	if !ok || se.PC != it.pc || !se.Executed || se.NoIssue {
		return false
	}
	in := &e.Inst
	if in.IsStore() {
		return false // stores must re-enter the store queue
	}
	// A reused instruction bypasses execution entirely, including
	// branch resolution; a branch may only be reused when its stored
	// outcome agrees with the prediction the stream assigned it (the
	// stream's final, truncated branch disagrees by construction and
	// must execute to trigger recovery).
	if in.IsBranch() && (se.Taken != e.Pred.Taken || (se.Taken && se.NextPC != e.Pred.Target)) {
		return false
	}
	srcs, n := in.SrcRegs()
	for k := 0; k < n; k++ {
		if c.written.Changed(srcs[k], srcCtx) {
			return false
		}
	}
	// Exact safety check behind the bit-array filter: reuse is valid
	// precisely when the primary's current mappings are the same
	// physical registers the trace entry originally read (physical
	// registers are write-once while allocated, so mapping identity
	// implies value identity).
	if in.ReadsRs1() && in.Rs1 != isa.RegZero && t.mapOf(in.Rs1) != se.Src1 {
		return false
	}
	if in.ReadsRs2() && in.Rs2 != isa.RegZero && t.mapOf(in.Rs2) != se.Src2 {
		return false
	}
	if in.IsLoad() {
		// Loads additionally require the MDB to prove no intervening
		// store touched the address.
		tagged := TagAddr(t.part.id, se.Addr)
		if !c.mdb.Reusable(TagAddr(t.part.id, se.PC), tagged) {
			return false
		}
		e.Addr = se.Addr
	}

	// Re-install the old mapping instead of the freshly allocated one.
	if in.WritesReg() {
		t.mapTab[in.Rd] = se.NewMap
		c.rf.AddRef(se.NewMap)
		c.rf.Release(e.NewMap) // drop the speculative fresh allocation
		e.NewMap = se.NewMap
	}
	e.Reused = true
	e.ReuseSrc = int8(srcCtx)
	e.Executed = true
	e.Result = se.Result
	e.ReadyAt = c.cycle
	if in.IsBranch() {
		e.Taken = se.Taken
		e.NextPC = se.NextPC
	}
	src.outstandingReuse++
	c.Stats.Reused++
	return true
}

// endStream finishes thread t's recycle stream, releasing the
// instructions fetched beyond it into the normal rename flow.
func (c *Core) endStream(t *Context) {
	for i := 0; i < t.fqLen(); i++ {
		t.fqAt(i).postMerge = false
	}
	c.setStream(t, nil)
}
