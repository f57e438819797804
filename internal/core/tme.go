package core

import (
	"math/bits"

	"recyclesim/internal/alist"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

// tryFork spawns an alternate path for a low-confidence conditional
// branch renamed by primary thread t.  The alternate takes the
// direction the prediction did not: "A TME processor uses idle hardware
// contexts ... to execute down both paths at conditional branch
// points."
func (c *Core) tryFork(t *Context, e *alist.Entry) {
	altPC := e.Inst.Target
	if e.PredTaken {
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
	c.activateAlternate(t, e, a, altPC, nil)
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageFork,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: uint64(a.id)})
	}
	if c.ptrace != nil {
		c.pipeTrace(obs.StageFork, t.id, e.PC, uint64(a.id))
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
// active list and freeing the registers").
func (c *Core) allocSpare(t *Context) *Context {
	if m := c.inState[CtxIdle] & t.part.mask; m != 0 {
		return c.ctxs[bits.TrailingZeros16(m)]
	}
	var lru *Context
	// Inactive traces are the normal victims; a draining context
	// (resolved wrong path still extending its trace) is also fair
	// game — a new fork is worth more than the tail of a trace.
	for m := (c.inState[CtxInactive] | c.inState[CtxDraining]) & t.part.mask; m != 0; m &= m - 1 {
		a := c.ctxs[bits.TrailingZeros16(m)]
		// §3.5: do not reclaim while the primary still has uncommitted
		// reuses of this trace's registers.
		if a.outstandingReuse > 0 {
			c.Stats.ForkFailReuse++
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
				Ctx: int16(lru.id), PC: lru.spawnPC})
		}
		c.killContext(lru)
		return lru
	}
	return nil
}

// activateAlternate sets up context a as the alternate path of branch e
// in primary t.  stream, when non-nil, re-spawns the context through
// the recycle datapath instead of fetching.
func (c *Core) activateAlternate(t *Context, e *alist.Entry, a *Context, altPC uint64, stream *recycleStream) {
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
	a.stream = stream
	a.path = forkPath{live: true, spawnCycle: c.cycle}

	// Duplicate the register map (the MSB makes this free in hardware:
	// "we can duplicate register state simply by duplicating the first
	// context's register map").
	a.mapTab = t.mapTab
	c.rf.AddRefs(a.mapTab[1:])
	a.hasMap = true

	// Branch prediction state follows the primary, with the forked
	// branch's opposite direction shifted into the history.
	c.pred.CopyContext(a.id, t.id)
	hist := e.Pred.GHist<<1 | 1
	if e.PredTaken {
		hist = e.Pred.GHist << 1
	}
	c.pred.ForceHist(a.id, hist&0x7FF)

	// A fresh path resets the written-bit column (§3.5).
	if c.written != nil {
		c.written.ResetContext(a.id)
	}

	e.Forked = true
	e.AltCtx = a.id
}

// respawn re-activates an inactive context whose trace starts at the
// requested alternate PC: "it is re-spawned via recycling, without
// consuming fetch bandwidth."
func (c *Core) respawn(t *Context, e *alist.Entry, a *Context, altPC uint64) {
	items := c.snapshotTrace(a, a, a.al.FirstSeq())
	if len(items) == 0 {
		// Degenerate trace; fall back to a normal spawn on it.
		c.killContext(a)
		c.activateAlternate(t, e, a, altPC, nil)
		c.Stats.Forks++
		return
	}
	c.killContext(a)
	// Activate first (seeding a's predictor state from the primary),
	// then run the trace through a's predictor to assign per-branch
	// predictions, exactly as a fetch-side merge would.
	c.activateAlternate(t, e, a, altPC, nil)
	stream := c.buildStream(a, items, -1 /* re-executing its own trace: no reuse */, false)
	a.stream = stream
	a.fetchPC = stream.nextPC
	a.path.respawned = true
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageRespawn,
			Ctx: int16(t.id), Seq: e.Seq, PC: e.PC, Arg: uint64(a.id)})
	}
	if c.ptrace != nil {
		c.pipeTrace(obs.StageRespawn, t.id, e.PC, uint64(a.id))
	}
	c.Stats.Forks++
	c.Stats.Respawns++
	c.Stats.Merges++
}

// reclaimForRegs frees physical registers under rename pressure by
// reclaiming the globally least-recently-used inactive context.
// Recycling "puts additional pressure on the renaming registers" (§4.1)
// and this is the pressure valve.
func (c *Core) reclaimForRegs() {
	var lru *Context
	for m := c.inState[CtxInactive]; m != 0; m &= m - 1 {
		a := c.ctxs[bits.TrailingZeros16(m)]
		if a.outstandingReuse > 0 {
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
				Ctx: int16(lru.id), PC: lru.spawnPC, Cause: obs.CauseRenameRegs})
		}
		c.killContext(lru)
	}
}

// resolveBranch handles a completed control transfer: misprediction
// recovery, TME promotion, and the transition of alternates to
// inactive.
func (c *Core) resolveBranch(t *Context, e *alist.Entry) {
	in := &e.Inst
	correct := e.Taken == e.PredTaken && (!e.Taken || e.NextPC == e.PredTarget)
	if in.IsCondBranch() {
		correct = e.Taken == e.PredTaken
		if t.isPrimary {
			c.Stats.CondBranches++
			if !correct {
				c.Stats.Mispredicts++
				if e.Forked {
					c.Stats.CoveredMiss++
				}
			}
		}
	} else if in.IsReturn() && t.isPrimary {
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
		t.fetchHalted = false
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
			t.part.primary = t.id
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
// according to the §5.2 policy.
func (c *Core) resolveAlternate(a *Context) {
	a.lruTick = c.cycle
	switch c.feat.AltPolicy {
	case config.AltStop:
		c.cancelIssue(a)
		c.makeInactive(a)
	case config.AltFetch:
		// Fetch may continue to the limit, but nothing more issues.
		c.cancelIssue(a)
		if a.pathLen >= c.feat.AltLimit || a.altCapped || a.fetchHalted {
			c.makeInactive(a)
		} else {
			c.setState(a, CtxDraining)
		}
	case config.AltNoStop:
		if a.pathLen >= c.feat.AltLimit || a.altCapped || a.fetchHalted {
			c.makeInactive(a)
		} else {
			c.setState(a, CtxDraining)
		}
	}
}

// cancelIssue removes a context's un-issued instructions from the
// queues; they remain in the active list as recyclable (never-executed)
// trace entries.
func (c *Core) cancelIssue(a *Context) {
	match := func(e *alist.Entry) bool {
		if e.Ctx != a.id || e.Issued {
			return false
		}
		e.NoIssue = true
		return true
	}
	c.iqInt.RemoveIf(match)
	c.iqFP.RemoveIf(match)
	// Never-issuing stores must not block loads; drop their queue slots.
	a.sq.compact(func(s *sqEntry) bool {
		if s.addrOK {
			return true
		}
		if ent, ok := a.al.At(s.seq); ok && ent.NoIssue {
			return false
		}
		return true
	})
}

// makeInactive parks a finished alternate as recyclable trace storage.
func (c *Core) makeInactive(a *Context) {
	if a.state == CtxInactive {
		return
	}
	c.setState(a, CtxInactive)
	a.lruTick = c.cycle
	a.fqClear()
	a.stream = nil
	a.fetchHalted = false
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
	t.part.primary = a.id
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
