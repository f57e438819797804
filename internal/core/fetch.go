package core

import (
	"math/bits"

	"recyclesim/internal/bpred"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

// ctxCand pairs a context id with its precomputed priority key for the
// per-cycle fetch and rename thread orderings.  It holds no pointer, so
// addCand's insertion is a plain memory move.
type ctxCand struct {
	id  int32
	key int32
}

// addCand inserts t with priority key into a thread ordering whose
// first nPrim candidates are primaries, and returns the ordering and
// the new primary count.  Primaries go ahead of alternates, each class
// in ascending key order, with ties in insertion order: contexts added
// in id order come out as a stable sort on (not primary, key) would
// leave them.  Candidate counts are bounded by the context count, so
// the insertion is cheap, and it allocates nothing.
func addCand(cands []ctxCand, nPrim int, t *Context, key int32) ([]ctxCand, int) {
	lo, hi := nPrim, len(cands)
	if t.isPrimary {
		lo, hi = 0, nPrim
		nPrim++
	}
	i := hi
	for i > lo && cands[i-1].key > key {
		i--
	}
	cands = append(cands, ctxCand{})
	copy(cands[i+1:], cands[i:])
	cands[i] = ctxCand{id: int32(t.id), key: key}
	return cands, nPrim
}

// fetch implements the ICOUNT.X.Y fetch stage with TME's primary-first
// priority and the recycling merge-point checks of §3.4: "Each cycle,
// when the primary thread prepares to fetch, it will compare its fetch
// PC ... with the merge points of itself and its alternate contexts.
// ... If the match is on the initial PC, then there is no need to fetch
// from the instruction cache for this thread, and another thread is
// sought for fetching."
func (c *Core) fetch() {
	cands := c.fetchCandidates()
	threads := 0
	width := c.mach.FetchWidth
	lineBytes := uint64(64)

	for _, cand := range cands {
		t := c.ctxs[cand.id]
		if threads >= c.mach.FetchThreads || width <= 0 {
			break
		}
		// Merge detection consumes no fetch slot.
		if c.feat.Recycle && t.stream == nil && c.tryMerge(t, t.fetchPC) {
			continue
		}

		threads++
		asid := t.part.prog.idx
		lat, hit := c.mem.AccessI(c.cycle, c.tagAddr(asid, t.fetchPC))
		if !hit {
			// I-cache miss: the thread's fetch stalls until the fill
			// completes; the slot is consumed.
			t.fetchStallUntil = c.cycle + uint64(lat)
			if c.ring != nil {
				c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageStall,
					Ctx: int16(t.id), Cause: obs.CauseICacheMiss, PC: t.fetchPC, Arg: uint64(lat)})
			}
			continue
		}
		readyAt := c.cycle + uint64(lat) + uint64(c.mach.FrontEndLat)

		pc := t.fetchPC
		line := pc / lineBytes
		n := 0
		merged := false
		for n < c.mach.FetchBlock && width > 0 && t.fqRoom() > 0 {
			if pc/lineBytes != line {
				break // cache-line boundary ends the block
			}
			// Mid-block merge: "instructions are fetched up to the
			// matching instruction, and recycling begins after it."
			if c.feat.Recycle && t.stream == nil && n > 0 && c.tryMerge(t, pc) {
				merged = true
				break
			}
			in := t.part.prog.prog.FetchInst(pc)
			if in.IsHalt() {
				t.pushFetch(c.cycle, pc, in, readyAt)
				t.fetchHalted = true
				n++
				width--
				if t.state == CtxDraining {
					// A draining alternate that runs into the end of
					// the program has nothing left to extend.
					c.makeInactive(t)
				}
				break
			}
			if c.altLimited(t, n) {
				break
			}
			fe := t.pushFetch(c.cycle, pc, in, readyAt)
			n++
			width--
			if !in.IsBranch() {
				pc += isa.InstBytes
				continue
			}
			// Predict straight into the queued entry.
			pr := &fe.pred
			c.pred.Lookup(t.id, pc, &fe.inst, pr)
			if pr.BTBMiss {
				c.Stats.BTBMisses++
			}
			c.pred.SpecUpdate(t.id, &fe.inst, pc, pr)
			fe.predTaken = pr.Taken
			fe.predTgt = pr.Target
			if pr.Taken {
				pc = pr.Target
				break // a taken branch ends the fetch block
			}
			pc += isa.InstBytes
		}
		if c.ring != nil && n > 0 {
			c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageFetch,
				Ctx: int16(t.id), PC: t.fetchPC, Arg: uint64(n)})
		}
		if !merged {
			// (On a mid-block merge, startStream already pointed the
			// fetch PC past the recycled trace.)
			t.fetchPC = pc
		}
		if t.state == CtxActive && !t.isPrimary || t.state == CtxDraining {
			t.pathLen += n
			if t.pathLen >= c.feat.AltLimit {
				c.altPathCap(t)
			}
		}
		c.Stats.Fetched += uint64(n)
	}
}

// pushFetch appends one decoded instruction to the context's fetch
// queue; cycle stamps when it entered (the pipetrace fetch stage).  The
// entry is written field by field, in place: a composite literal would
// be built on the stack and then copied over.  Its prediction starts
// zero; the fetch stage fills it in for branches.
func (t *Context) pushFetch(cycle, pc uint64, in isa.Inst, readyAt uint64) *fqEntry {
	fe := t.fqPush()
	fe.pc = pc
	fe.inst = in
	fe.pred = bpred.Pred{}
	fe.predTaken = false
	fe.predTgt = 0
	fe.fetchCycle = cycle
	fe.readyAt = readyAt
	fe.postMerge = t.stream != nil
	return fe
}

// altLimited reports whether an alternate path must stop fetching
// because it reached the §5.2 instruction limit.
func (c *Core) altLimited(t *Context, fetchedThisCycle int) bool {
	if t.isPrimary || t.state == CtxRetiring {
		return false
	}
	if !c.feat.TME {
		return false
	}
	return t.pathLen+fetchedThisCycle >= c.feat.AltLimit
}

// altPathCap transitions an alternate that hit its fetch limit: active
// alternates simply stop fetching; draining ones become inactive.
func (c *Core) altPathCap(t *Context) {
	switch t.state {
	case CtxActive:
		t.altCapped = true
	case CtxDraining:
		c.makeInactive(t)
	}
}

// fetchCandidates orders fetchable contexts: primary threads first by
// ICOUNT, then alternates by ICOUNT — the TME-modified ICOUNT policy
// of [18] referenced in §3.3.  The result lives in the core's reusable
// candidate scratch (valid until the next ordering is built).
func (c *Core) fetchCandidates() []ctxCand {
	cands, nPrim := c.cands[:0], 0
	for m := c.inState[CtxActive] | c.inState[CtxDraining]; m != 0; m &= m - 1 {
		if t := c.ctxs[bits.TrailingZeros16(m)]; c.canFetch(t) {
			cands, nPrim = addCand(cands, nPrim, t, int32(t.icount(c.iqInt.CountCtx(t.id)+c.iqFP.CountCtx(t.id))))
		}
	}
	c.cands = cands
	return cands
}

func (c *Core) canFetch(t *Context) bool {
	switch t.state {
	case CtxActive:
	case CtxDraining:
		// Only the fetch/nostop policies keep fetching after the
		// forking branch resolves.
		if c.feat.AltPolicy == config.AltStop {
			return false
		}
	default:
		return false
	}
	if t.part.done || t.fetchHalted || t.altCapped {
		return false
	}
	if t.fetchStallUntil > c.cycle {
		return false
	}
	return t.fqRoom() > 0
}

// tryMerge checks pc against the merge points visible to thread t and,
// on a hit, snapshots the matched trace into a recycle stream.  Primary
// threads see their spare contexts' first-PC points plus their own
// first-PC and backward points; other fetching threads see only their
// own backward point.
func (c *Core) tryMerge(t *Context, pc uint64) bool {
	if t.part.done {
		return false
	}
	// Spare contexts' traces (alternate or inactive), primaries only.
	if t.isPrimary {
		spares := (c.inState[CtxActive] | c.inState[CtxDraining] | c.inState[CtxInactive]) & t.part.mask &^ (1 << uint(t.id))
		for m := spares; m != 0; m &= m - 1 {
			src := c.ctxs[bits.TrailingZeros16(m)]
			if seq, back, ok := src.mp.Match(pc); ok && !back {
				return c.startStream(t, src, seq, false)
			}
		}
		// The primary's own merge point: the backward-branch (loop)
		// point.  (The paper also stores a first-instruction PC per
		// context, but for a primary thread whose ring retains committed
		// history that point would trigger pathological whole-window
		// replays; the useful primary-to-primary case the paper reports
		// is the backward-branch one, so that is what we match.)
		if seq, back, ok := t.mp.Match(pc); ok && back {
			return c.startStream(t, t, seq, true)
		}
		return false
	}
	// Non-primary fetching threads check their own backward point only.
	if seq, back, ok := t.mp.Match(pc); ok && back {
		return c.startStream(t, t, seq, true)
	}
	return false
}

// startStream snapshots src's active list from seq to its tail into a
// recycle stream consumed by t.  It returns false when the trace is
// empty (nothing to recycle).
//
// The whole trace is run through t's branch predictor here: each branch
// item records its prediction and the speculative history/return-stack
// state advances as if the trace had been fetched.  At the first
// disagreement between the current prediction and the direction the
// trace followed, the stream is truncated after the disagreeing branch
// and fetch resumes on the newly predicted path (§3.4's chosen method).
func (c *Core) startStream(t, src *Context, seq uint64, back bool) bool {
	items := c.snapshotTrace(t, src, seq)
	if len(items) == 0 {
		return false
	}
	// Bound the injected trace to half the consumer's window so a
	// merge cannot wedge a small active list behind a wall of
	// deep-speculative recycled instructions (rename backpressure
	// handles the rest: stream items stall when the list is full).
	if max := t.al.Capacity() / 2; len(items) > max {
		items = items[:max]
	}
	srcCtx := src.id
	if src == t || back {
		srcCtx = -1 // reuse is alternate→primary only (§3.5)
	}
	stream := c.buildStream(t, items, srcCtx, back)
	stream.preDrain = t.fqLen()
	t.stream = stream
	if c.ring != nil {
		// Arg packs the post-truncation stream length (high bits) with
		// the source context (low 16); a backward merge is recognizable
		// by source == consumer.
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageMerge,
			Ctx: int16(t.id), Seq: seq, PC: items[0].pc,
			Arg: uint64(len(t.stream.items))<<16 | uint64(uint16(src.id))})
	}
	if c.ptrace != nil {
		c.pipeTrace(obs.StageMerge, t.id, items[0].pc, uint64(src.id))
	}
	// "Fetching immediately continues from where recycling will
	// complete."
	t.fetchPC = t.stream.nextPC
	t.fetchHalted = false

	c.Stats.Merges++
	if back {
		c.Stats.BackMerges++
	}
	if src != t {
		src.path.recycled = true
		src.path.merges++
		src.lruTick = c.cycle
	}
	return true
}

// buildStream runs a snapshotted trace through consumer t's branch
// predictor: every branch item records its prediction, the speculative
// history and return stack advance as if the trace had been fetched,
// and the stream truncates after the first branch whose current
// prediction disagrees with the trace, with fetch redirected to the
// newly predicted path.  The returned stream is the consumer's reused
// streamStore (a context consumes at most one stream at a time).
func (c *Core) buildStream(t *Context, items []streamItem, srcCtx int, back bool) *recycleStream {
	nextPC := traceNext(&items[len(items)-1])
	for i := range items {
		it := &items[i]
		if !it.inst.IsBranch() {
			continue
		}
		pr := &it.pred
		c.pred.Lookup(t.id, it.pc, &it.inst, pr)
		if c.feat.TrustTrace {
			// §3.4's former method: "the branch prediction previously
			// used for the recycled instructions can be used" — follow
			// the trace unconditionally and push its directions into
			// the history.
			pr.Taken = it.traceTaken
			if it.traceTaken {
				pr.Target = it.traceTgt
			}
			c.pred.SpecUpdate(t.id, &it.inst, it.pc, pr)
			continue
		}
		mismatch := false
		if it.inst.IsCondBranch() {
			mismatch = pr.Taken != it.traceTaken
		} else if pr.Target != it.traceTgt {
			mismatch = true
		}
		c.pred.SpecUpdate(t.id, &it.inst, it.pc, pr)
		if mismatch {
			items = items[:i+1]
			if pr.Taken {
				nextPC = pr.Target
			} else {
				nextPC = it.pc + isa.InstBytes
			}
			break
		}
	}
	t.streamStore = recycleStream{
		items:  items,
		srcCtx: srcCtx,
		back:   back,
		nextPC: nextPC,
	}
	if c.Obs.Hists {
		c.Obs.StreamLen.Observe(uint64(len(items)))
	}
	return &t.streamStore
}

// snapshotTrace copies src's retained active-list entries from seq to
// the tail into stream items, held in the consumer dst's reusable
// stream scratch (dst owns the resulting stream).
func (c *Core) snapshotTrace(dst, src *Context, seq uint64) []streamItem {
	items := dst.streamBuf[:0]
	for s := seq; s < src.al.TailSeq(); s++ {
		e, ok := src.al.At(s)
		if !ok {
			continue
		}
		// Append a zero item and fill it in place rather than copying a
		// stack-built one.
		items = append(items, streamItem{})
		it := &items[len(items)-1]
		it.pc, it.inst, it.srcSeq = e.PC, e.Inst, e.Seq
		if e.Inst.IsBranch() {
			it.traceTaken = e.TraceTaken()
			if e.Executed {
				it.traceTgt = e.NextPC
			} else if e.PredTaken {
				it.traceTgt = e.PredTarget
			} else {
				it.traceTgt = e.PC + isa.InstBytes
			}
			if !it.traceTaken {
				it.traceTgt = e.PC + isa.InstBytes
			}
		}
	}
	dst.streamBuf = items[:0] // retain the buffer if append ever grew it
	return items
}

// traceNext computes the PC following the last instruction of a trace.
func traceNext(last *streamItem) uint64 {
	if last.inst.IsBranch() && last.traceTaken {
		return last.traceTgt
	}
	return last.pc + isa.InstBytes
}
