package core

import (
	"fmt"
	"math/bits"
	"strings"

	"recyclesim/internal/alist"
	"recyclesim/internal/invariant"
	"recyclesim/internal/iq"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/regfile"
	"recyclesim/internal/wheel"
)

// defaultInvariantEvery is the checker period used when
// Features.InvariantEvery is zero.  It stays zero (checker off) in
// normal builds; the siminvariant build tag overrides it (see
// invariant_tag.go).
var defaultInvariantEvery uint64 = 0

// CheckInvariants sweeps the machine's cross-structure invariants and
// returns the findings.  It is called periodically from Cycle when
// enabled, and directly (every cycle) by the stress tests.  The sweep
// is read-only.
//
// Checked invariants:
//
//   - register refcount conservation: the free lists and refcounts are
//     mutually consistent (no double-free, no referenced-but-free);
//   - refcount accounting: every register's refcount equals the number
//     of reachable holders — occurrences in live map tables plus
//     uncommitted active-list OldMaps — so nothing leaks or is freed
//     early;
//   - active-list structure: sequence pointers ordered, ring slots
//     self-consistent;
//   - idle contexts hold no resources;
//   - context masks: each context is in exactly its state's mask, the
//     streaming mask whether it consumes a recycle stream, the fetched
//     mask whether its fetch queue holds an instruction, and no mask
//     (the primary mask included) has a bit beyond the last context;
//     its instruction-queue occupancy count equals its entries in both
//     queues;
//   - primaries: each live partition has exactly one primary context,
//     active and holding a register map, and no idle context is
//     primary;
//   - child links: each context's kids has bit c set exactly while
//     context c names it as parentCtx;
//   - instruction queue membership, both directions: everything queued
//     is a live un-issued entry, and every dispatched un-issued entry
//     is queued exactly once;
//   - completion coverage: every live issued-but-incomplete entry is
//     reachable through the completion wheel or the pending-store list
//     (the wheel's lazy deletion permits stale items, but never a lost
//     completion), and every wheel item is scheduled in the future;
//     the pending-store list holds exactly the issued stores parked
//     with ReadyAt == dataPending;
//   - store queues: each context's slots are its live, dispatched,
//     issuable stores' own active-list entries, in program order;
//   - outstanding-reuse conservation: each context's pin count equals
//     the number of uncommitted reused entries naming it as source;
//   - written-bit coherence, whenever the core keeps the bit-array
//     (Features.Reuse): a clear bit promises an unchanged mapping
//     (checked where the trace itself did not write the register);
//   - commit accounting: the per-program commit counts sum to the total
//     committed, and the halted-program count equals the number of
//     partitions marked done;
//   - telemetry conservation: the rename slot-cycle attribution sums to
//     cycles × rename width with nothing charged to the null cause;
//   - pipetrace stage-sequence legality (when a pipetrace recorder is
//     attached): every recorded timeline is a legal path through the
//     pipeline DAG — recycled ⇒ no fetch stage, reused ⇒ no
//     queue/issue/writeback, squashed ⇔ not committed, stages in
//     program order (see checkPipeTrace).
//
// The sweep allocates (reports, scratch maps); it runs from the cycle
// loop only at the configured cadence, so it is declared off the
// steady-state budget with //recycle:coldpath.
//
//recycle:coldpath
func (c *Core) CheckInvariants() *invariant.Report {
	r := invariant.NewReport(c.cycle)
	c.checkRegfile(r)
	c.checkMasks(r)
	c.checkContexts(r)
	c.checkQueues(r)
	c.checkReuse(r)
	if c.written != nil {
		c.checkWrittenBits(r)
	}
	c.checkCommits(r)
	c.checkTelemetry(r)
	c.checkPipeTrace(r)
	return r
}

// checkRegfile verifies free-list/refcount consistency and then full
// refcount accounting against the reachable holders.
func (c *Core) checkRegfile(r *invariant.Report) {
	if err := c.rf.CheckConservation(); err != nil {
		r.Failf("regfile", "%v", err)
	}
	n := c.rf.NumInt + c.rf.NumFP
	expected := make([]int32, n)
	for _, t := range c.ctxs {
		for l := 1; l < isa.NumRegs; l++ {
			if pr := t.mapTab[l]; pr != regfile.NoReg {
				expected[pr]++
			}
		}
		for s := t.al.CommitSeq(); s < t.al.TailSeq(); s++ {
			e, ok := t.al.At(s)
			if !ok {
				continue
			}
			if e.OldMap != regfile.NoReg {
				expected[e.OldMap]++
			}
		}
	}
	for pr := 0; pr < n; pr++ {
		got := c.rf.Refs(regfile.PhysReg(pr))
		if got != int(expected[pr]) {
			r.Failf("refcount", "p%d has refcount %d but %d reachable holder(s) (map tables + uncommitted OldMaps): %s",
				pr, got, expected[pr], leakKind(got, int(expected[pr])))
		}
	}
}

func leakKind(got, want int) string {
	if got > want {
		return "leaked references"
	}
	return "premature release pending"
}

// checkMasks verifies the per-state, streaming and fetched context
// masks and the kids links against the contexts' own fields, the
// primary mask's range, and the occupancy counts against the
// instruction queues.
func (c *Core) checkMasks(r *invariant.Report) {
	all := uint16(1)<<uint(len(c.ctxs)) - 1
	for s := CtxState(0); s < numCtxStates; s++ {
		if extra := c.inState[s] &^ all; extra != 0 {
			r.Failf("ctxmask", "%v mask %016b has bits beyond the %d contexts", s, c.inState[s], len(c.ctxs))
		}
	}
	for _, m := range []struct {
		name string
		bits uint16
	}{{"primary", c.primary}, {"streaming", c.streaming}, {"fetched", c.fetched}} {
		if extra := m.bits &^ all; extra != 0 {
			r.Failf("ctxmask", "%s mask %016b has bits beyond the %d contexts", m.name, m.bits, len(c.ctxs))
		}
	}
	for id := len(c.ctxs); id < len(c.occ); id++ {
		if c.occ[id] != 0 {
			r.Failf("ctxmask", "ctx=%d beyond the %d contexts has an occupancy count of %d", id, len(c.ctxs), c.occ[id])
		}
	}
	for _, t := range c.ctxs {
		bit := uint16(1) << uint(t.id)
		for s := CtxState(0); s < numCtxStates; s++ {
			if in := c.inState[s]&bit != 0; in != (t.state == s) {
				r.Failf("ctxmask", "ctx=%d in state %v but its %v-mask bit is %v", t.id, t.state, s, in)
			}
		}
		if in := c.streaming&bit != 0; in != (t.stream != nil) {
			r.Failf("ctxmask", "ctx=%d stream live=%v but its streaming-mask bit is %v", t.id, t.stream != nil, in)
		}
		if in := c.fetched&bit != 0; in != (t.fqLen() != 0) {
			r.Failf("ctxmask", "ctx=%d holds %d fetched instruction(s) but its fetched-mask bit is %v", t.id, t.fqLen(), in)
		}
		if n := c.iqInt.CountCtx(t.id) + c.iqFP.CountCtx(t.id); int(c.occ[t.id]) != n {
			r.Failf("ctxmask", "ctx=%d has %d instruction-queue entries but an occupancy count of %d", t.id, n, c.occ[t.id])
		}
		var kids uint16
		for _, k := range c.ctxs {
			if k.parentCtx == t.id {
				kids |= 1 << uint(k.id)
			}
		}
		if t.kids != kids {
			r.Failf("kids", "ctx=%d has kids %016b but contexts %016b name it as parent", t.id, t.kids, kids)
		}
	}
}

// checkContexts verifies active-list structure, idle-context hygiene,
// store-queue consistency, and partition primary sanity.
func (c *Core) checkContexts(r *invariant.Report) {
	for _, t := range c.ctxs {
		al := &t.al
		if !(al.FirstSeq() <= al.CommitSeq() && al.CommitSeq() <= al.TailSeq()) {
			r.Failf("alist", "ctx=%d sequence pointers disordered: first=%d commit=%d tail=%d",
				t.id, al.FirstSeq(), al.CommitSeq(), al.TailSeq())
			continue
		}
		for s := al.FirstSeq(); s < al.TailSeq(); s++ {
			e, ok := al.At(s)
			if !ok {
				r.Failf("alist", "ctx=%d retained seq=%d not addressable", t.id, s)
				continue
			}
			if e.Seq != s {
				r.Failf("alist", "ctx=%d ring slot for seq=%d holds seq=%d", t.id, s, e.Seq)
			}
			if int(e.Ctx) != t.id {
				r.Failf("alist", "ctx=%d seq=%d entry claims ctx=%d", t.id, s, e.Ctx)
			}
		}

		if t.state == CtxIdle {
			switch {
			case al.Len() != 0:
				r.Failf("idle", "ctx=%d idle with %d retained active-list entries", t.id, al.Len())
			case t.mapTab != noMap:
				r.Failf("idle", "ctx=%d idle but still holds a register map", t.id)
			case t.outstandingReuse != 0:
				r.Failf("idle", "ctx=%d idle with outstandingReuse=%d", t.id, t.outstandingReuse)
			case t.fqLen() != 0 || t.sq.len() != 0 || t.stream != nil:
				r.Failf("idle", "ctx=%d idle with fetch/store/stream state", t.id)
			case c.isPrimary(t):
				r.Failf("idle", "ctx=%d idle but marked primary", t.id)
			}
			continue
		}

		// Store queue: its slots are the live uncommitted entries of
		// the dispatched stores that may issue, in program order
		// (cancelIssue drops a store only once it is NoIssue).
		n, inOrder := 0, true
		for s := al.CommitSeq(); inOrder && s < al.TailSeq(); s++ {
			e, _ := al.At(s)
			if !e.Inst.IsStore() || !e.Dispatched || e.NoIssue {
				continue
			}
			if inOrder = n < t.sq.len() && t.sq.at(n) == e; !inOrder {
				r.Failf("storeq", "ctx=%d dispatched store seq=%d is not in store-queue slot %d", t.id, s, n)
			}
			n++
		}
		if inOrder && n != t.sq.len() {
			r.Failf("storeq", "ctx=%d store queue holds %d slot(s) for %d dispatched store(s)", t.id, t.sq.len(), n)
		}
	}

	for _, p := range c.parts {
		if p.done {
			continue
		}
		t := c.primaryOf(p)
		if t == nil {
			r.Failf("primary", "partition %d (contexts %016b) has %d primary contexts",
				p.id, p.mask, bits.OnesCount16(c.primary&p.mask))
			continue
		}
		switch {
		case t.state != CtxActive:
			r.Failf("primary", "partition %d primary ctx=%d in state %v", p.id, t.id, t.state)
		case t.mapTab == noMap:
			r.Failf("primary", "partition %d primary ctx=%d has no register map", p.id, t.id)
		}
	}
}

// checkQueues verifies instruction-queue membership in both directions
// and the liveness of the exec and pending-store lists.
func (c *Core) checkQueues(r *invariant.Report) {
	inQueue := map[*alist.Entry]string{}
	audit := func(name string, q *iq.Queue) {
		q.Each(func(e *alist.Entry) {
			if prev, dup := inQueue[e]; dup {
				r.Failf("iq", "ctx=%d seq=%d queued twice (%s and %s)", e.Ctx, e.Seq, prev, name)
			}
			inQueue[e] = name
			t := c.ctxs[e.Ctx]
			live, ok := t.al.At(e.Seq)
			switch {
			case !ok || live != e:
				r.Failf("iq", "%s holds stale entry ctx=%d seq=%d (squashed or recycled slot)", name, e.Ctx, e.Seq)
			case e.Seq < t.al.CommitSeq():
				r.Failf("iq", "%s holds committed entry ctx=%d seq=%d", name, e.Ctx, e.Seq)
			case !e.Dispatched || e.Issued || e.Executed || e.NoIssue:
				r.Failf("iq", "%s entry ctx=%d seq=%d has inconsistent flags (disp=%v issued=%v exec=%v noissue=%v)",
					name, e.Ctx, e.Seq, e.Dispatched, e.Issued, e.Executed, e.NoIssue)
			}
		})
	}
	audit("iqInt", &c.iqInt)
	audit("iqFP", &c.iqFP)

	for _, t := range c.ctxs {
		for s := t.al.CommitSeq(); s < t.al.TailSeq(); s++ {
			e, _ := t.al.At(s)
			if e == nil || !e.Dispatched || e.Issued || e.Executed || e.NoIssue {
				continue
			}
			if _, ok := inQueue[e]; !ok {
				r.Failf("iq", "ctx=%d seq=%d dispatched and issuable but in no instruction queue", t.id, s)
			}
		}
	}

	// Completion coverage.  The wheel deletes lazily — squashed entries
	// leave stale items behind by design, so staleness is NOT a failure
	// here.  What must hold instead: (a) every wheel item is filed for a
	// future cycle (a past-due item would never be drained again and its
	// completion would be lost); (b) every live issued-but-incomplete
	// entry is covered — reachable via a wheel item for itself or parked
	// in pendingSt — else it never completes.
	covered := map[*alist.Entry]bool{}
	c.exec.Each(func(it wheel.Item) {
		e := it.E
		if it.Due <= c.cycle {
			r.Failf("exec", "wheel item ctx=%d seq=%d due cycle %d not after current cycle %d",
				e.Ctx, e.Seq, it.Due, c.cycle)
		}
		t := c.ctxs[e.Ctx]
		if live, ok := t.al.At(e.Seq); ok && live == e {
			covered[e] = true
		}
	})
	pending := map[*alist.Entry]bool{}
	for _, e := range c.pendingSt {
		t := c.ctxs[e.Ctx]
		live, ok := t.al.At(e.Seq)
		switch {
		case !ok || live != e:
			r.Failf("exec", "pendingSt holds stale entry ctx=%d seq=%d", e.Ctx, e.Seq)
		case !e.Issued || e.Executed:
			r.Failf("exec", "pendingSt entry ctx=%d seq=%d has inconsistent flags (issued=%v exec=%v)",
				e.Ctx, e.Seq, e.Issued, e.Executed)
		case !e.Inst.IsStore():
			r.Failf("exec", "pendingSt holds non-store ctx=%d seq=%d", e.Ctx, e.Seq)
		}
		pending[e] = true
		covered[e] = true
	}
	for _, t := range c.ctxs {
		for s := t.al.CommitSeq(); s < t.al.TailSeq(); s++ {
			e, _ := t.al.At(s)
			if e == nil || !e.Issued || e.Executed {
				continue
			}
			// A store parked for its data is in pendingSt, and
			// everything in pendingSt is parked.
			if parked := e.ReadyAt == dataPending; parked != pending[e] {
				r.Failf("exec", "ctx=%d seq=%d parked for data=%v but in pendingSt=%v", t.id, s, parked, pending[e])
			}
			if !covered[e] {
				r.Failf("exec", "ctx=%d seq=%d issued but covered by neither the completion wheel nor pendingSt", t.id, s)
			}
		}
	}
}

// checkReuse verifies outstanding-reuse conservation: each context's
// pin count equals the number of uncommitted reused entries anywhere
// that name it as their source (§3.5's reclaim constraint depends on
// this counter being exact).
func (c *Core) checkReuse(r *invariant.Report) {
	counts := make([]int, len(c.ctxs))
	for _, t := range c.ctxs {
		for s := t.al.CommitSeq(); s < t.al.TailSeq(); s++ {
			e, _ := t.al.At(s)
			if e == nil || !e.Reused {
				continue
			}
			if e.ReuseSrc < 0 || int(e.ReuseSrc) >= len(c.ctxs) {
				r.Failf("reuse", "ctx=%d seq=%d reused with invalid source %d", t.id, s, e.ReuseSrc)
				continue
			}
			counts[e.ReuseSrc]++
		}
	}
	for _, t := range c.ctxs {
		if t.outstandingReuse != counts[t.id] {
			r.Failf("reuse", "ctx=%d outstandingReuse=%d but %d uncommitted reused entries name it as source",
				t.id, t.outstandingReuse, counts[t.id])
		}
	}
}

// checkWrittenBits verifies written-bit coherence after reuse: for a
// non-primary context a, a clear bit (reg, a) promises the primary has
// not re-instanced reg since a's path started.  Where a's own trace
// also never wrote reg, both map tables must therefore still agree
// (they were identical at fork).  Cases the bit-array handles
// conservatively (promotion's SetAll, reuse's ClearFor on a register
// the trace wrote) are excluded by the preconditions.
func (c *Core) checkWrittenBits(r *invariant.Report) {
	for _, p := range c.parts {
		prim := c.primaryOf(p)
		if prim == nil || prim.mapTab == noMap {
			continue // reported by checkContexts when unexpected
		}
		for m := p.mask; m != 0; m &= m - 1 {
			a := c.ctxs[bits.TrailingZeros16(m)]
			if a == prim || a.state == CtxIdle || a.state == CtxRetiring || a.mapTab == noMap {
				continue
			}
			wrote := ctxWroteRegs(a)
			for l := 1; l < isa.NumRegs; l++ {
				if wrote[l] || c.written.Changed(isa.Reg(l), a.id) {
					continue
				}
				if prim.mapTab[l] != a.mapTab[l] {
					r.Failf("written", "reg r%d: bit clear for ctx=%d yet primary ctx=%d maps p%d while ctx maps p%d",
						l, a.id, prim.id, prim.mapTab[l], a.mapTab[l])
				}
			}
		}
	}
}

// ctxWroteRegs returns, per logical register, whether any retained
// entry of t writes it (one active-list scan per sweep).
func ctxWroteRegs(t *Context) [isa.NumRegs]bool {
	var wrote [isa.NumRegs]bool
	for s := t.al.FirstSeq(); s < t.al.TailSeq(); s++ {
		if e, ok := t.al.At(s); ok && e.Inst.WritesReg() {
			wrote[e.Inst.Rd] = true
		}
	}
	return wrote
}

// checkCommits verifies that each commit and each halt is counted once:
// Stats.PerProgram sums to Stats.Committed, and haltedPrograms counts
// the done partitions.
func (c *Core) checkCommits(r *invariant.Report) {
	var sum uint64
	for _, n := range c.Stats.PerProgram {
		sum += n
	}
	if sum != c.Stats.Committed {
		r.Failf("commits", "per-program commits sum to %d but %d committed", sum, c.Stats.Committed)
	}
	done := 0
	for _, p := range c.parts {
		if p.done {
			done++
		}
	}
	if done != c.haltedPrograms {
		r.Failf("commits", "%d partition(s) done but haltedPrograms=%d", done, c.haltedPrograms)
	}
}

// checkTelemetry verifies the stall-attribution identity: every rename
// slot of every elapsed cycle was charged to exactly one real cause, so
// the attribution array sums to cycles × rename width and the null
// cause holds nothing.  (attributeSlots establishes this at the end of
// each Cycle; a violation means a rename path updated slot counts
// without flowing through it.)
func (c *Core) checkTelemetry(r *invariant.Report) {
	total := c.Obs.TotalSlotCycles()
	want := c.cycle * uint64(c.mach.RenameWidth)
	if total != want {
		r.Failf("telemetry", "slot-cycle attribution sums to %d but cycles(%d) x rename width(%d) = %d",
			total, c.cycle, c.mach.RenameWidth, want)
	}
	if n := c.Obs.SlotCycles[obs.CauseNone]; n != 0 {
		r.Failf("telemetry", "%d slot-cycles charged to the null cause", n)
	}
}

// dumpState renders a cycle-stamped snapshot of the machine for the
// invariant panic message.  Only a failing run reaches it
// (//recycle:coldpath).
//
//recycle:coldpath
func (c *Core) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine state at cycle %d:\n", c.cycle)
	fmt.Fprintf(&b, "  regfile: int free %d/%d, fp free %d/%d\n",
		c.rf.FreeCount(false), c.rf.NumInt, c.rf.FreeCount(true), c.rf.NumFP)
	fmt.Fprintf(&b, "  iq: int %d/%d, fp %d/%d; wheel=%d pendingSt=%d\n",
		c.iqInt.Len(), c.iqInt.Capacity(), c.iqFP.Len(), c.iqFP.Capacity(),
		c.exec.Len(), len(c.pendingSt))
	for _, t := range c.ctxs {
		if t.state == CtxIdle {
			fmt.Fprintf(&b, "  ctx=%d idle\n", t.id)
			continue
		}
		fmt.Fprintf(&b, "  ctx=%d state=%v prim=%v parent=%d/%d al=[%d,%d,%d) fq=%d sq=%d reusePins=%d stream=%v pc=0x%x\n",
			t.id, t.state, c.isPrimary(t), t.parentCtx, t.parentSeq,
			t.al.FirstSeq(), t.al.CommitSeq(), t.al.TailSeq(),
			t.fqLen(), t.sq.len(), t.outstandingReuse, t.stream != nil, t.fetchPC)
	}
	for _, p := range c.parts {
		fmt.Fprintf(&b, "  part=%d done=%v mask=%04x\n", p.id, p.done, p.mask)
	}
	b.WriteString(c.ring.Dump())
	return b.String()
}
