package core

import (
	"math/bits"

	"recyclesim/internal/alist"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

// mayFork reports whether entry e, just renamed by t, is a TME fork
// candidate (§2): a conditional branch of a live program's primary
// thread.
func (c *Core) mayFork(t *Context, e *alist.Entry) bool {
	return c.feat.TME && c.isPrimary(t) && e.Inst.IsCondBranch() && !t.part.done
}

// tryFork spawns an alternate path for fork candidate e (mayFork) when
// its branch is low-confidence.  The alternate takes the direction the
// prediction did not: "A TME processor uses idle hardware contexts ...
// to execute down both paths at conditional branch points."
func (c *Core) tryFork(t *Context, e *alist.Entry) {
	if c.conf.HighConfidence(TagAddr(t.part.id, e.PC)) {
		return
	}
	altPC := e.Inst.Target
	if e.Pred.Taken {
		altPC = e.PC + isa.InstBytes
	}

	// Re-spawning (§3.1): if an inactive context already holds a trace
	// starting at the alternate PC, re-activate it through the recycle
	// datapath instead of consuming a fresh context and fetch
	// bandwidth.
	if c.feat.Respawn && c.feat.Recycle {
		if a := c.findInactiveAt(t, altPC); a != nil {
			c.respawn(t, e, a, altPC)
			return
		}
	}

	a := c.allocSpare(t)
	if a == nil {
		c.Stats.ForkFailNoCtx++
		return
	}
	c.activateAlternate(t, e, a, altPC)
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageFork,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: uint64(a.id)})
	}
	if c.ptrace != nil {
		c.ptrace.Instant(c.cycle, obs.StageFork, t.id, e.PC, uint64(a.id))
	}
	c.Stats.Forks++
}

// findInactiveAt locates an inactive context in t's partition whose
// stored trace starts at pc.
func (c *Core) findInactiveAt(t *Context, pc uint64) *Context {
	for m := c.inState[CtxInactive] & t.part.mask; m != 0; m &= m - 1 {
		a := c.ctxs[bits.TrailingZeros16(m)]
		if !a.mp.FirstValid || a.mp.FirstPC != pc {
			continue
		}
		// §3.5's reclaim constraint applies to re-spawning too: the
		// respawn squashes and rebuilds the trace, which would strand
		// the primary's uncommitted reuses of its registers (their
		// commit-time unpinning would hit the replacement path's pin
		// count).  Fall back to a normal spawn on another context.
		if a.outstandingReuse > 0 {
			continue
		}
		return a
	}
	return nil
}

// allocSpare finds a context for a new alternate path: an idle context
// if one exists, otherwise the least-recently-used inactive context is
// reclaimed ("the architecture identifies the least-recently-used
// inactive context and reclaims it, squashing the instructions in the
// active list and freeing the registers").  Inactive traces are the
// normal victims; a draining context (resolved wrong path still
// extending its trace) is also fair game — a new fork is worth more
// than the tail of a trace.
func (c *Core) allocSpare(t *Context) *Context {
	if m := c.inState[CtxIdle] & t.part.mask; m != 0 {
		return c.ctxs[bits.TrailingZeros16(m)]
	}
	return c.reclaimLRU((c.inState[CtxInactive]|c.inState[CtxDraining])&t.part.mask, true, obs.CauseNone)
}

// reclaimLRU reclaims the least-recently-used context among cands and
// returns it, or nil when there is none.  §3.5: a context is not
// reclaimed while the primary still has uncommitted reuses of its
// registers; countRefusals counts each such refusal as a failed fork.
// cause tags the ring event.
func (c *Core) reclaimLRU(cands uint16, countRefusals bool, cause obs.Cause) *Context {
	var lru *Context
	for m := cands; m != 0; m &= m - 1 {
		a := c.ctxs[bits.TrailingZeros16(m)]
		if a.outstandingReuse > 0 {
			if countRefusals {
				c.Stats.ForkFailReuse++
			}
			continue
		}
		if lru == nil || a.lruTick < lru.lruTick {
			lru = a
		}
	}
	if lru != nil {
		c.Stats.Reclaims++
		if c.ring != nil {
			c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageReclaim,
				Ctx: int16(lru.id), PC: lru.spawnPC, Cause: cause})
		}
		c.killContext(lru)
	}
	return lru
}

// activateAlternate sets up idle context a as the alternate path of
// branch e in primary t, fetching from altPC.
func (c *Core) activateAlternate(t *Context, e *alist.Entry, a *Context, altPC uint64) {
	c.setState(a, CtxActive)
	c.setPrimary(a, false)
	a.parentCtx = t.id
	a.parentSeq = e.Seq
	t.kids |= 1 << uint(a.id)
	a.fetchPC = altPC
	a.spawnPC = altPC
	a.pathLen = 0
	a.altCapped = false
	a.fetchHalted = false
	a.fetchStallUntil = 0
	a.path = forkPath{live: true, spawnCycle: c.cycle}

	// Duplicate the register map (the MSB makes this free in hardware:
	// "we can duplicate register state simply by duplicating the first
	// context's register map").
	a.mapTab = t.mapTab
	c.rf.AddRefs(a.mapTab[1:])

	// Branch prediction state follows the primary, with the forked
	// branch's opposite direction shifted into the history.
	c.pred.CopyContext(a.id, t.id)
	hist := e.Pred.GHist<<1 | 1
	if e.Pred.Taken {
		hist = e.Pred.GHist << 1
	}
	c.pred.ForceHist(a.id, hist&0x7FF)

	// A fresh path resets the written-bit column (§3.5).
	if c.written != nil {
		c.written.ResetContext(a.id)
	}

	e.Forked = true
	e.AltCtx = int8(a.id)
}

// respawn re-activates an inactive context whose trace starts at the
// requested alternate PC: "it is re-spawned via recycling, without
// consuming fetch bandwidth."
func (c *Core) respawn(t *Context, e *alist.Entry, a *Context, altPC uint64) {
	items := c.snapshotTrace(a, a, a.al.FirstSeq(), a.al.Capacity()) // the whole trace
	c.killContext(a)
	// Activate first (seeding a's predictor state from the primary),
	// then run the trace through a's predictor to assign per-branch
	// predictions, exactly as a fetch-side merge would.
	c.activateAlternate(t, e, a, altPC)
	c.Stats.Forks++
	if len(items) == 0 {
		return // a degenerate trace: a is a normal spawn
	}
	stream := c.buildStream(a, items, -1 /* re-executing its own trace: no reuse */, false)
	c.setStream(a, stream)
	a.fetchPC = stream.nextPC
	a.path.respawned = true
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageRespawn,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: uint64(a.id)})
	}
	if c.ptrace != nil {
		c.ptrace.Instant(c.cycle, obs.StageRespawn, t.id, e.PC, uint64(a.id))
	}
	c.Stats.Respawns++
	c.Stats.Merges++
}

// resolveBranch handles a completed control transfer: misprediction
// recovery, TME promotion, and the transition of alternates to
// inactive.
func (c *Core) resolveBranch(t *Context, e *alist.Entry) {
	in := &e.Inst
	correct := e.Taken == e.Pred.Taken && (!e.Taken || e.NextPC == e.Pred.Target)
	if in.IsCondBranch() {
		correct = e.Taken == e.Pred.Taken
		if c.isPrimary(t) {
			c.Stats.CondBranches++
			if !correct {
				c.Stats.Mispredicts++
				if e.Forked {
					c.Stats.CoveredMiss++
				}
			}
		}
	} else if in.IsReturn() && c.isPrimary(t) {
		if correct {
			c.Stats.ReturnPredOK++
		} else {
			c.Stats.ReturnPredBad++
		}
	}

	if e.Forked {
		a := c.ctxs[e.AltCtx]
		// The alternate may already have been killed by an older
		// squash; verify linkage.
		if a.state == CtxIdle || a.parentCtx != t.id || a.parentSeq != e.Seq {
			e.Forked = false
		} else if correct {
			// Predicted path confirmed: the alternate stops.  With
			// recycling it is kept for future merges; plain TME
			// squashes it immediately.
			if c.feat.Recycle {
				c.resolveAlternate(a)
			} else {
				c.killContext(a)
			}
		} else {
			c.promote(t, e, a)
			return
		}
	}

	if !correct {
		// Conventional misprediction recovery within this context.
		c.squashFrom(t.id, e.Seq+1)
		c.pred.Restore(t.id, in, &e.Pred, e.Taken)
		t.fetchPC = e.NextPC
		t.fetchStallUntil = c.cycle + redirectPenalty
		t.altCapped = false
		switch t.state {
		case CtxDraining, CtxInactive:
			// An alternate past its resolution mispredicting inside
			// its own path simply stops extending the trace.
			c.makeInactive(t)
		case CtxRetiring:
			// An ex-primary hit an unforked mispredict OLDER than the
			// branch that dethroned it: the promotion consumed a
			// wrong-path fork (just squashed, killing the promoted
			// thread), so this context is the correct path again and
			// resumes as the primary.
			c.setState(t, CtxActive)
			c.setPrimary(t, true)
			if c.written != nil {
				c.written.SetAll(t.part.mask)
			}
			if c.ring != nil {
				c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageReinstate,
					Ctx: int16(t.id), Seq: e.Seq, PC: e.PC})
			}
		}
	}
}

// resolveAlternate transitions a confirmed-wrong alternate path
// according to the §5.2 policy: under stop and fetch nothing more of
// it issues, and it drains (keeps fetching to the path limit) under
// fetch and nostop unless it has already stopped.
func (c *Core) resolveAlternate(a *Context) {
	a.lruTick = c.cycle
	if c.feat.AltPolicy != config.AltNoStop {
		c.cancelIssue(a)
	}
	if c.feat.AltPolicy == config.AltStop || a.pathLen >= c.feat.AltLimit || a.altCapped || a.fetchHalted {
		c.makeInactive(a)
	} else {
		c.setState(a, CtxDraining)
	}
}

// cancelIssue removes a context's un-issued instructions from the
// queues; they remain in the active list as recyclable (never-executed)
// trace entries.  A live entry is queued exactly while it is
// dispatched, not issued and not NoIssue, so marking those NoIssue and
// dropping all of a's queue entries is the same cut.
func (c *Core) cancelIssue(a *Context) {
	for s := a.al.CommitSeq(); s < a.al.TailSeq(); s++ {
		if e, ok := a.al.At(s); ok && e.Dispatched && !e.Issued {
			e.NoIssue = true
		}
	}
	c.occ[a.id] -= int32(c.iqInt.RemoveFrom(a.id, 0) + c.iqFP.RemoveFrom(a.id, 0))
	// Never-issuing stores must not block loads; drop their queue slots.
	a.sq.compact(func(s *alist.Entry) bool { return s.Issued || !s.NoIssue })
}

// makeInactive parks a finished alternate as recyclable trace storage.
func (c *Core) makeInactive(a *Context) {
	if a.state == CtxInactive {
		return
	}
	c.setState(a, CtxInactive)
	a.lruTick = c.cycle
	c.dropFrontEnd(a)
	// Issue cancellation is policy-specific and happens in
	// resolveAlternate; under nostop, already-queued instructions of
	// an inactive trace still execute ("send all of those instructions
	// to the instruction queue to be scheduled for execution").
}

// promote makes alternate a the primary thread after its forking branch
// mispredicted: "the alternate path thread becomes the primary thread."
// The old primary squashes everything younger than the branch and
// drains its remaining (correct, pre-branch) instructions.
func (c *Core) promote(t *Context, e *alist.Entry, a *Context) {
	// Squashing t beyond the branch also kills alternates forked from
	// the squashed wrong-path region.
	c.squashFrom(t.id, e.Seq+1)

	c.setPrimary(t, false)
	c.setState(t, CtxRetiring)
	t.fetchHalted = true
	c.finishPath(t) // no-op unless t itself was once an alternate

	c.setPrimary(a, true)
	a.altCapped = false
	if a.state == CtxDraining || a.state == CtxInactive {
		c.setState(a, CtxActive)
	}
	a.path.usedTME = true
	c.finishPath(a)
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StagePromote,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: uint64(a.id)})
	}

	// The promoted thread's alternate-path writes were never recorded
	// in the written bit-array (only primaries set bits), so every
	// retained trace in the partition must be treated as stale.
	if c.written != nil {
		c.written.SetAll(t.part.mask)
	}

	// Correct-path history for the promoted thread was already seeded
	// at fork time.  The branch predictor trains at commit.

	// Reset the written-bit columns of the partition's other alternate
	// paths?  No: their paths are unchanged; only a's column becomes
	// meaningless now that a IS the primary.  Future forks reset
	// columns at spawn.
}
