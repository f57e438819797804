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
		// Only an active primary or a retiring ex-primary can commit.
		can := c.inState[CtxActive]&c.primary | c.inState[CtxRetiring]
		rr := c.rrCommit
		if can&(1<<uint(rr)) != 0 && c.commitOne(c.ctxs[rr]) {
			budget--
			stuck = 0
			continue
		}
		// Step the pointer one position at a time, as a failed
		// position does, but take the run of positions that cannot
		// commit in one step: each counts toward stuck, and none
		// calls commitOne, so can stays as it is until the next
		// position in it.  With no such position within the stuck
		// limit, the pointer goes as far as the limit lets it.
		step := n
		if rest := can >> uint(rr+1); rest != 0 {
			step = bits.TrailingZeros16(rest) + 1
		} else if can != 0 {
			step = n - rr + bits.TrailingZeros16(can)
		}
		step = min(step, n-stuck)
		if c.rrCommit = rr + step; c.rrCommit >= n {
			c.rrCommit -= n
		}
		stuck += step
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
		// Retire its store-queue slot.  The queue holds only this
		// context's uncommitted stores, in program order, and e is
		// the oldest uncommitted entry, so the slot is the ring's front.
		t.sq.popFront()
	case in.IsBranch():
		// The PHT/BTB are shared and untagged: cross-program aliasing
		// is part of the modelled hardware (the confidence table is
		// tagged because forking the wrong program's branch would
		// corrupt the fork statistics rather than just a prediction).
		c.pred.Commit(e.PC, in, &e.Pred, e.Taken, e.NextPC)
		if in.IsCondBranch() {
			c.conf.Update(TagAddr(part.id, e.PC), e.Taken == e.Pred.Taken)
		}
	}

	if e.OldMap != regfile.NoReg {
		c.rf.Release(e.OldMap)
		e.OldMap = regfile.NoReg
	}
	c.unpin(e)

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
			Ctx: int16(c.primaryOf(p).id), Arg: uint64(p.id)})
	}
	for m := p.mask; m != 0; m &= m - 1 {
		t := c.ctxs[bits.TrailingZeros16(m)]
		if t.state == CtxIdle {
			continue
		}
		if c.isPrimary(t) {
			// Keep the primary parked (its map holds the final
			// architectural state) but stop all activity.
			c.dropFrontEnd(t)
			t.fetchHalted = true
			continue
		}
		c.killContext(t)
	}
}
