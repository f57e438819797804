package core

import (
	"recyclesim/internal/alist"
	"recyclesim/internal/iq"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/regfile"
	"recyclesim/internal/wheel"
)

// issue selects ready instructions from the queues oldest-first and
// sends them to the functional units.  Execution is functional-at-issue
// (the operand values are read and the result computed immediately);
// the result is published to dependents at ReadyAt, modelling a full
// bypass network, and branches take effect when they complete.
func (c *Core) issue() {
	c.issueQueue(c.iqInt)
	c.issueQueue(c.iqFP)
}

func (c *Core) issueQueue(q *iq.Queue) {
	q.Issue(c.rf.ReadyBits(), c.tryIssue)
}

// tryIssue issues e when its operands, memory disambiguation and a
// functional unit allow.  When it keeps e because a source register is
// not ready, it returns that register as wait, and it checks the
// source registers before anything else, so iq.Queue.Issue may skip e
// until the register is ready.
func (c *Core) tryIssue(e *alist.Entry) (issued bool, wait regfile.PhysReg) {
	in := &e.Inst
	// Stores issue on address readiness alone (two-phase issue);
	// everything else needs all operands.
	if !c.srcReady(e.Src1) {
		return false, e.Src1
	}
	if !in.IsStore() && !c.srcReady(e.Src2) {
		return false, e.Src2
	}
	t := c.ctxs[e.Ctx]
	if in.IsLoad() && !c.loadMayIssue(t, e) {
		return false, regfile.NoReg
	}
	if !c.fus.TryIssue(in.Class(), in.Latency()) {
		return false, regfile.NoReg
	}
	c.execute(t, e)
	return true, regfile.NoReg
}

func (c *Core) srcReady(r regfile.PhysReg) bool {
	return r == regfile.NoReg || c.rf.Ready(r)
}

func (c *Core) srcValue(r regfile.PhysReg) uint64 {
	if r == regfile.NoReg {
		return 0
	}
	return c.rf.Value(r)
}

// loadMayIssue applies memory disambiguation: a load waits until every
// older store in its own context — and, for alternate paths, the
// parent chain's stores older than the fork point — has a generated
// address, and until any address-matching older store has its data.
func (c *Core) loadMayIssue(t *Context, e *alist.Entry) bool {
	// The address is computable now (Src1 is ready); use it to decide
	// whether a matching older store's data gates this load.
	addr := isa.EffAddr(e.Inst, c.srcValue(e.Src1)) &^ 7
	check := func(sq *storeQueue, beforeSeq uint64) bool {
		for i := 0; i < sq.len(); i++ {
			s := sq.at(i)
			if s.seq >= beforeSeq {
				continue
			}
			if !s.addrOK {
				return false // unknown older address: wait
			}
			if s.addr == addr && !s.valOK {
				return false // will forward from it: wait for data
			}
		}
		return true
	}
	if !check(&t.sq, e.Seq) {
		return false
	}
	ctx, limit := t.parentCtx, t.parentSeq
	for hops := 0; ctx >= 0 && hops < len(c.ctxs); hops++ {
		p := c.ctxs[ctx]
		if !check(&p.sq, limit+1) {
			return false
		}
		ctx, limit = p.parentCtx, p.parentSeq
	}
	return true
}

// loadValue resolves a load's value: newest matching store in the
// context's own store queue, then the parent chain's pre-fork stores,
// then architectural memory.
func (c *Core) loadValue(t *Context, seq uint64, addr uint64) (uint64, bool) {
	addr &^= 7
	best := func(sq *storeQueue, beforeSeq uint64) (uint64, bool) {
		var v uint64
		found := false
		var bestSeq uint64
		for i := 0; i < sq.len(); i++ {
			s := sq.at(i)
			if s.valOK && s.seq < beforeSeq && s.addr == addr &&
				(!found || s.seq >= bestSeq) {
				v, found, bestSeq = s.val, true, s.seq
			}
		}
		return v, found
	}
	if v, ok := best(&t.sq, seq); ok {
		return v, true
	}
	ctx, limit := t.parentCtx, t.parentSeq
	for hops := 0; ctx >= 0 && hops < len(c.ctxs); hops++ {
		p := c.ctxs[ctx]
		if v, ok := best(&p.sq, limit+1); ok {
			return v, true
		}
		ctx, limit = p.parentCtx, p.parentSeq
	}
	return t.part.mem.Read(addr), false
}

// execute computes an issued instruction functionally and schedules its
// completion.
func (c *Core) execute(t *Context, e *alist.Entry) {
	in := &e.Inst
	s1 := c.srcValue(e.Src1)
	s2 := c.srcValue(e.Src2)
	lat := in.Latency()
	e.Issued = true
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageIssue,
			Ctx: int16(e.Ctx), Seq: e.Seq, PC: e.PC, Arg: uint64(in.Op)})
	}
	if c.ptrace != nil {
		c.ptrace.OnIssue(e.Trace, c.cycle)
	}

	switch {
	case in.IsLoad():
		e.Addr = isa.EffAddr(*in, s1)
		v, forwarded := c.loadValue(t, e.Seq, e.Addr)
		e.Result = v
		if !forwarded {
			lat += c.mem.AccessD(c.cycle, c.tagAddr(t.part.id, e.Addr))
		}
	case in.IsStore():
		// Phase one: address generation.  The MDB is invalidated here
		// (as soon as the address is known) so no reuse can slip in
		// between address generation and data arrival.
		e.Addr = isa.EffAddr(*in, s1)
		if s := t.sq.find(e.Seq); s != nil {
			s.addr = e.Addr &^ 7
			s.addrOK = true
		}
		if c.mdb != nil {
			c.mdb.StoreTo(c.tagAddr(t.part.id, e.Addr&^7))
		}
		// Stores probe the data cache for timing (write allocate).
		lat += c.mem.AccessD(c.cycle, c.tagAddr(t.part.id, e.Addr))
		if !c.srcReady(e.Src2) {
			// Data pending: park in phase two; complete() re-arms the
			// store when the data register arrives.  ReadyAt is pushed to
			// the far future so a stale wheel item left behind by this
			// slot's previous occupant (lazy deletion) cannot pass the
			// revalidation filter and complete the parked store early.
			e.ReadyAt = ^uint64(0)
			c.pendingSt = append(c.pendingSt, e)
			return
		}
		e.Result = s2
		c.storeCaptureData(t, e)
	case in.IsBranch():
		e.Taken = isa.BranchTaken(*in, s1, s2)
		if e.Taken {
			e.NextPC = isa.BranchTarget(*in, s1)
		} else {
			e.NextPC = e.PC + isa.InstBytes
		}
		if in.WritesReg() {
			e.Result = isa.Eval(*in, e.PC, s1, s2)
		}
		lat += redirectPenalty // register-read depth before resolution
	default:
		e.Result = isa.Eval(*in, e.PC, s1, s2)
	}

	e.ReadyAt = c.cycle + uint64(lat)
	c.exec.Schedule(e, e.ReadyAt, c.cycle)
}

// storeCaptureData records a store's data in the store queue (phase
// two of store issue), enabling forwarding to younger loads.
func (c *Core) storeCaptureData(t *Context, e *alist.Entry) {
	if s := t.sq.find(e.Seq); s != nil {
		s.val = e.Result
		s.valOK = true
	}
}

// complete retires finished executions: results are written back,
// loads enter the MDB, stores invalidate it, and branches resolve.
// The completion wheel yields exactly the executions due this cycle
// (cost proportional to completions, not to the in-flight count); the
// batch is processed in deterministic (ctx, seq) order.  A resolution
// may squash younger completions drained for the same cycle, and the
// wheel's lazy deletion can surface stale or duplicate items, so each
// entry is revalidated before processing.
func (c *Core) complete() {
	due := c.due[:0]

	// Phase-two stores: capture data once the source register arrives.
	// Re-armed stores complete this same cycle, so they join the due
	// batch directly instead of going through the wheel.
	if len(c.pendingSt) > 0 {
		rest := c.pendingSt[:0]
		for _, e := range c.pendingSt {
			if c.srcReady(e.Src2) {
				t := c.ctxs[e.Ctx]
				if live, ok := t.al.At(e.Seq); ok && live == e {
					e.Result = c.srcValue(e.Src2)
					c.storeCaptureData(t, e)
					e.ReadyAt = c.cycle
					due = append(due, e)
				}
			} else {
				rest = append(rest, e)
			}
		}
		for i := len(rest); i < len(c.pendingSt); i++ {
			c.pendingSt[i] = nil
		}
		c.pendingSt = rest
	}

	c.exec.PopDue(c.cycle, func(it wheel.Item) {
		e := it.E
		// Lazy-deletion filter: skip items whose entry was squashed
		// since scheduling (the slot no longer resolves to e, or the
		// slot was re-renamed and the new instruction is not yet due).
		t := c.ctxs[e.Ctx]
		live, ok := t.al.At(e.Seq)
		if !ok || live != e || e.Executed || !e.Issued || e.ReadyAt > c.cycle {
			return
		}
		due = append(due, e)
	})
	c.due = due[:0] // retain the grown scratch capacity
	if len(due) == 0 {
		return
	}
	sortDueByCtxSeq(due)
	for _, e := range due {
		// Revalidate: a squash earlier in this cycle may have removed
		// or recycled this active-list slot, and a stale wheel item can
		// duplicate an entry drained through its own item this cycle.
		t := c.ctxs[e.Ctx]
		live, ok := t.al.At(e.Seq)
		if !ok || live != e || e.Executed || !e.Issued {
			continue
		}
		c.completeEntry(t, e)
	}
}

// sortDueByCtxSeq insertion-sorts a completion batch by (ctx, seq).
// Batches are bounded by per-cycle completion counts (a handful), and
// unlike sort.Slice this allocates nothing.
func sortDueByCtxSeq(due []*alist.Entry) {
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && dueLess(due[j], due[j-1]); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
}

func dueLess(a, b *alist.Entry) bool {
	if a.Ctx != b.Ctx {
		return a.Ctx < b.Ctx
	}
	return a.Seq < b.Seq
}

func (c *Core) completeEntry(t *Context, e *alist.Entry) {
	e.Executed = true
	in := &e.Inst
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageComplete,
			Ctx: int16(e.Ctx), Seq: e.Seq, PC: e.PC, Arg: e.Result})
	}
	if c.ptrace != nil {
		c.ptrace.OnWriteback(e.Trace, c.cycle)
	}
	if in.WritesReg() && e.NewMap != regfile.NoReg {
		c.rf.SetValue(e.NewMap, e.Result)
	}
	switch {
	case in.IsLoad():
		if c.mdb != nil {
			asid := t.part.id
			c.mdb.InsertLoad(c.tagAddr(asid, e.PC), c.tagAddr(asid, e.Addr&^7))
		}
	case in.IsStore():
		// MDB invalidation already happened at address generation.
	case in.IsBranch():
		c.resolveBranch(t, e)
	}
}
