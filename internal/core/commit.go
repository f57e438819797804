package core

import (
	"math/bits"

	"recyclesim/internal/obs"
	"recyclesim/internal/regfile"
)

// commit retires executed instructions in order from each context's
// active list, up to the machine's commit width.  Only primary threads
// and retiring ex-primaries commit; a context promoted from an
// alternate is gated until its parent has committed the forking branch,
// which preserves total program order (and store order) across the
// hand-off.
func (c *Core) commit() {
	if len(c.ctxs) == 0 {
		return
	}
	budget := c.mach.CommitWidth
	n := len(c.ctxs)
	stuck := 0
	for budget > 0 && stuck < n {
		// Only an active primary or a retiring ex-primary can commit:
		// skip every other context without the call.
		can := c.inState[CtxActive]&c.primary | c.inState[CtxRetiring]
		if can&(1<<uint(c.rrCommit)) != 0 && c.commitOne(c.ctxs[c.rrCommit]) {
			budget--
			stuck = 0
			continue
		}
		if c.rrCommit++; c.rrCommit == n {
			c.rrCommit = 0
		}
		stuck++
	}
}

// commitOne tries to retire the oldest instruction of context t, an
// active primary or a retiring ex-primary (commit's mask picks them:
// speculative alternates never commit).
func (c *Core) commitOne(t *Context) bool {
	if t.parentCtx >= 0 {
		p := c.ctxs[t.parentCtx]
		if p.state != CtxIdle && p.al.CommitSeq() <= t.parentSeq {
			return false // wait for the fork branch to retire
		}
		c.unlinkParent(t) // the branch retired, or the parent drained earlier
	}
	e, ok := t.al.Head()
	if !ok || !e.Executed || e.ReadyAt > c.cycle {
		return false
	}

	in := &e.Inst
	part := t.part

	switch {
	case in.IsStore():
		part.mem.Write(e.Addr&^7, e.Result)
		// Retire the store-queue entry.  Stores commit in program order,
		// so the match is the ring's front and retirement is O(1); the
		// scan fallback covers a front dropped early by cancelIssue.
		if t.sq.len() > 0 && t.sq.at(0).seq == e.Seq {
			t.sq.popFront()
		} else {
			t.sq.compact(func(s *sqEntry) bool { return s.seq != e.Seq })
		}
	case in.IsBranch():
		// The PHT/BTB are shared and untagged: cross-program aliasing
		// is part of the modelled hardware (the confidence table is
		// tagged because forking the wrong program's branch would
		// corrupt the fork statistics rather than just a prediction).
		c.pred.Commit(e.PC, in, &e.Pred, e.Taken, e.NextPC)
		if in.IsCondBranch() {
			c.conf.Update(c.tagAddr(part.id, e.PC), e.Taken == e.PredTaken)
		}
	}

	if e.OldMap != regfile.NoReg {
		c.rf.Release(e.OldMap)
		e.OldMap = regfile.NoReg
	}
	if e.Reused && e.ReuseSrc >= 0 && e.ReuseSrc < len(c.ctxs) {
		if c.ctxs[e.ReuseSrc].outstandingReuse > 0 {
			c.ctxs[e.ReuseSrc].outstandingReuse--
		}
	}

	t.al.CommitHead()
	c.Stats.Committed++
	c.Stats.PerProgram[part.id]++
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageCommit,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: e.Result})
	}
	if c.ptrace != nil {
		c.ptrace.OnCommit(e.Trace, c.cycle)
	}
	if c.CommitHook != nil {
		c.CommitHook(CommitInfo{
			Program: part.id,
			Ctx:     t.id,
			PC:      e.PC,
			Inst:    *in,
			Result:  e.Result,
			Addr:    e.Addr,
			Taken:   e.Taken,
			Reused:  e.Reused,
		})
	}

	// Release children gated on this entry.
	for m := t.kids; m != 0; m &= m - 1 {
		cc := c.ctxs[bits.TrailingZeros16(m)]
		if cc.state != CtxIdle && cc.parentSeq < t.al.CommitSeq() {
			c.unlinkParent(cc)
		}
	}

	if in.IsHalt() && !part.done {
		c.haltProgram(part)
	}

	// A retiring ex-primary that has drained becomes a spare.
	if t.state == CtxRetiring && t.al.InFlight() == 0 {
		c.killContext(t)
	}
	return true
}

// haltProgram stops a partition whose program committed its halt.
func (c *Core) haltProgram(p *Partition) {
	p.done = true
	c.haltedPrograms++
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageHalt,
			Ctx: int16(p.primary), Arg: uint64(p.id)})
	}
	for _, id := range p.ctxIDs {
		t := c.ctxs[id]
		if t.state == CtxIdle {
			continue
		}
		if t.isPrimary {
			// Keep the primary parked (its map holds the final
			// architectural state) but stop all activity.
			t.fetchHalted = true
			t.fqClear()
			t.stream = nil
			continue
		}
		c.killContext(t)
	}
}
