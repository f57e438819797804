package core

import (
	"math/bits"

	"recyclesim/internal/bpred"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

// ctxCand is one context in a per-cycle fetch or rename thread
// ordering: its priority key (candKey) above candIDBits bits of context
// id.  Ascending ctxCand order is ascending key with ties in ascending
// id, so one word compare orders two candidates.
type ctxCand uint64

// candIDBits holds a context id: maxContexts is 1<<candIDBits.
const candIDBits = 4

// id returns the candidate's context id.
func (k ctxCand) id() int { return int(k & (1<<candIDBits - 1)) }

// altRank sets a candidate key apart for alternates: every primary
// thread's key is below every alternate's, since keys are counts of
// queued instructions, far below it.
const altRank = 1 << 30

// candKey is context id's candidate in a thread ordering, keyed by its
// occupancy count n, with altRank added unless it is a primary thread,
// so primaries go ahead of alternates and each class is ordered by n.
func (c *Core) candKey(id int, n int32) ctxCand {
	key := uint64(n) + altRank*uint64(^c.primary>>uint(id)&1)
	return ctxCand(key<<candIDBits | uint64(id))
}

// addCand inserts candidate k into the first n candidates of the
// core's ordering scratch, kept ascending, and returns the new count.
// Contexts are added in ascending id, so a candidate goes after those
// with an equal key, as a stable sort on the key would leave it.
// Candidate counts are bounded by the context count, so the insertion
// shifts a handful of words, one by one (a copy would be a
// runtime.memmove call per insert), and it allocates nothing.
func (c *Core) addCand(n int, k ctxCand) int {
	cands := &c.cands
	i := n
	for ; i > 0 && cands[i-1] > k; i-- {
		cands[i] = cands[i-1]
	}
	cands[i] = k
	return n + 1
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
	lineShift := c.mem.IL1.LineShift()

	for _, cand := range cands {
		t := c.ctxs[cand.id()]
		if threads >= c.mach.FetchThreads || width <= 0 {
			break
		}
		// Merge detection consumes no fetch slot.
		probing := c.feat.Recycle && t.stream == nil
		if probing {
			c.probeMerges(t)
			if c.tryMerge(t, t.fetchPC) {
				continue
			}
		}

		threads++
		asid := t.part.id
		lat, hit := c.mem.AccessI(c.cycle, TagAddr(asid, t.fetchPC))
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
		line := pc >> lineShift
		n := 0
		merged := false
		for n < c.mach.FetchBlock && width > 0 && t.fqRoom() > 0 {
			if pc>>lineShift != line {
				break // cache-line boundary ends the block
			}
			// Mid-block merge: "instructions are fetched up to the
			// matching instruction, and recycling begins after it."
			if probing && n > 0 && c.tryMerge(t, pc) {
				merged = true
				break
			}
			in := t.part.prog.FetchInst(pc)
			if in.IsHalt() {
				c.pushFetch(t, pc, in, readyAt)
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
			fe := c.pushFetch(t, pc, in, readyAt)
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
		if t.state == CtxActive && !c.isPrimary(t) || t.state == CtxDraining {
			t.pathLen += n
			if t.pathLen >= c.feat.AltLimit {
				c.altPathCap(t)
			}
		}
		c.Stats.Fetched += uint64(n)
	}
}

// pushFetch appends one decoded instruction to t's fetch queue, stamped
// with the current cycle (the pipetrace fetch stage).  The entry is
// written field by field, in place: a composite literal would be built
// on the stack and then copied over.  The instruction is copied from
// the program's code through in, memory to memory: passed by value it
// would arrive in registers, be stored field by field and reloaded
// with one wide load, which stalls.  Its prediction starts zero; the
// fetch stage fills it in for branches.
func (c *Core) pushFetch(t *Context, pc uint64, in *isa.Inst, readyAt uint64) *fqEntry {
	fe := c.fqPush(t)
	fe.pc = pc
	fe.inst = *in
	fe.pred = bpred.Pred{}
	fe.fetchCycle = c.cycle
	fe.readyAt = readyAt
	fe.postMerge = t.stream != nil
	return fe
}

// altLimited reports whether an alternate path must stop fetching
// because it reached the §5.2 instruction limit.
func (c *Core) altLimited(t *Context, fetchedThisCycle int) bool {
	if c.isPrimary(t) || t.state == CtxRetiring {
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
//
// A context fetches when it is active, or draining under the fetch or
// nostop policies (only those keep fetching after the forking branch
// resolves), and nothing holds it: it is fetchable, no I-cache fill
// stalls it and its fetch queue has room.
func (c *Core) fetchCandidates() []ctxCand {
	live := c.inState[CtxActive]
	if c.feat.AltPolicy != config.AltStop {
		live |= c.inState[CtxDraining]
	}
	n := 0
	for m := live; m != 0; m &= m - 1 {
		t := c.ctxs[bits.TrailingZeros16(m)]
		if !t.fetchable() || t.fetchStallUntil > c.cycle || t.fqRoom() == 0 {
			continue
		}
		n = c.addCand(n, c.candKey(t.id, t.icount(c.occ[t.id])))
	}
	return c.cands[:n]
}

// mergeProbe is one merge point as a fetch block's merge checks read
// it: a spare context's first-PC point, or the fetching thread's own
// backward point (src is then the thread itself).
type mergeProbe struct {
	pc, seq uint64
	src     int32
}

// probeMerges collects the merge points thread t's fetch block checks,
// in the order tryMerge takes them, into the core's probe scratch.
// First, for a primary only (only primaries merge into spares), the
// valid first-PC points of its spare contexts (alternate or inactive),
// in ascending context id.  Last, t's own backward-branch (loop)
// point.  (The paper also stores a first-instruction PC per context,
// but for a primary thread whose ring retains committed history that
// point would trigger pathological whole-window replays; the useful
// primary-to-primary case the paper reports is the backward-branch
// one, so that is what we match.  Non-primary fetching threads check
// their own backward point only, too.)  The own point is left out
// when MergePoints.Match prefers t's first-PC point at its PC.
//
// tryMerge reads the scratch for every PC of t's fetch block.  Nothing
// in one thread's fetch block moves a context's merge points or
// state, and a merge ends the block, so one collection per block is
// exact.
func (c *Core) probeMerges(t *Context) {
	probe := c.probe[:0]
	if c.isPrimary(t) {
		spares := (c.inState[CtxActive] | c.inState[CtxDraining] | c.inState[CtxInactive]) & t.part.mask &^ (1 << uint(t.id))
		for m := spares; m != 0; m &= m - 1 {
			id := bits.TrailingZeros16(m)
			if mp := &c.ctxs[id].mp; mp.FirstValid {
				probe = append(probe, mergeProbe{pc: mp.FirstPC, seq: mp.FirstSeq, src: int32(id)})
			}
		}
	}
	if seq, back, ok := t.mp.Match(t.mp.BackPC); ok && back {
		probe = append(probe, mergeProbe{pc: t.mp.BackPC, seq: seq, src: int32(t.id)})
	}
	c.probe = probe
}

// tryMerge checks pc against the merge points of thread t's fetch
// block (probeMerges) and, on the first that matches, snapshots its
// trace into a recycle stream; a match on t's own point is a
// backward merge.  t's program has not halted: fetch takes no thread
// of a halted program.
func (c *Core) tryMerge(t *Context, pc uint64) bool {
	for i := range c.probe {
		if p := &c.probe[i]; p.pc == pc {
			return c.startStream(t, c.ctxs[p.src], p.seq, int(p.src) == t.id)
		}
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
	// Bound the injected trace to half the consumer's window so a
	// merge cannot wedge a small active list behind a wall of
	// deep-speculative recycled instructions (rename backpressure
	// handles the rest: stream items stall when the list is full).
	items := c.snapshotTrace(t, src, seq, t.al.Capacity()/2)
	if len(items) == 0 {
		return false
	}
	srcCtx := src.id
	if src == t || back {
		srcCtx = -1 // reuse is alternate→primary only (§3.5)
	}
	stream := c.buildStream(t, items, srcCtx, back)
	stream.preDrain = t.fqLen()
	c.setStream(t, stream)
	if c.ring != nil {
		// Arg packs the post-truncation stream length (high bits) with
		// the source context (low 16); a backward merge is recognizable
		// by source == consumer.
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageMerge,
			Ctx: int16(t.id), Seq: seq, PC: items[0].pc,
			Arg: uint64(len(t.stream.items))<<16 | uint64(uint16(src.id))})
	}
	if c.ptrace != nil {
		c.ptrace.Instant(c.cycle, obs.StageMerge, t.id, items[0].pc, uint64(src.id))
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
// the tail, at most limit of them, into stream items, held in the
// consumer dst's reusable stream scratch (dst owns the resulting
// stream).  Each item is written field by field in its scratch slot:
// the scratch holds a whole active list (Context.reset sizes it), so
// no item is appended or built on the stack and copied.  A branch
// item's prediction is left for buildStream, which overwrites it;
// every other item's is zeroed.
func (c *Core) snapshotTrace(dst, src *Context, seq uint64, limit int) []streamItem {
	items := dst.streamBuf[:min(limit, src.al.Len())]
	n := 0
	for s := max(seq, src.al.FirstSeq()); s < src.al.TailSeq() && n < len(items); s++ {
		e, _ := src.al.At(s)
		it := &items[n]
		n++
		it.pc, it.inst, it.srcSeq = e.PC, e.Inst, e.Seq
		if !e.Inst.IsBranch() {
			it.traceTaken, it.traceTgt = false, 0
			it.pred = bpred.Pred{}
			continue
		}
		it.traceTaken = e.TraceTaken()
		switch {
		case !it.traceTaken:
			it.traceTgt = e.PC + isa.InstBytes
		case e.Executed:
			it.traceTgt = e.NextPC
		default:
			it.traceTgt = e.Pred.Target // taken, as predicted
		}
	}
	return items[:n]
}

// traceNext computes the PC following the last instruction of a trace.
func traceNext(last *streamItem) uint64 {
	if last.inst.IsBranch() && last.traceTaken {
		return last.traceTgt
	}
	return last.pc + isa.InstBytes
}
