// Package core implements the cycle-level simulator of the paper's
// machine: a wide simultaneous multithreading (SMT) processor extended
// with threaded multipath execution (TME) and the instruction
// recycling, reuse, and re-spawning mechanisms of §3.
//
// The simulator is execution-driven: physical registers carry real
// values, wrong paths and alternate paths genuinely execute, and the
// committed instruction stream of every configuration is expected to
// match the golden in-order emulator exactly (the test suite checks
// this).  The model is single-threaded and fully deterministic.
package core

import (
	"fmt"
	"math/bits"

	"recyclesim/internal/alist"
	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/fu"
	"recyclesim/internal/iq"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/pipetrace"
	"recyclesim/internal/program"
	"recyclesim/internal/recycle"
	"recyclesim/internal/regfile"
	"recyclesim/internal/stats"
	"recyclesim/internal/wheel"
)

const (
	fetchQueueCap   = 32
	redirectPenalty = 2  // extra front-end repair cycles after a mispredict
	mdbCapacity     = 64 // Memory Disambiguation Buffer entries

	// wheelHorizon bounds the completion wheel's slot ring.  The worst
	// execution latency is a divide (20) plus a full miss chain to
	// memory (~90 with bank skew); 256 leaves headroom, and the wheel's
	// far list keeps anything beyond it correct anyway.
	wheelHorizon = 256
)

// CommitInfo describes one committed instruction; tests use the hook to
// co-simulate against the golden emulator.
type CommitInfo struct {
	Program int
	Ctx     int
	PC      uint64
	Inst    isa.Inst
	Result  uint64
	Addr    uint64
	Taken   bool
	Reused  bool
}

// Core is the simulated processor.
type Core struct {
	mach config.Machine
	feat config.Features

	cycle uint64

	rf      *regfile.File
	pred    *bpred.Predictor
	conf    *confidence.Estimator
	mem     *cache.Hierarchy
	iqInt   *iq.Queue
	iqFP    *iq.Queue
	fus     *fu.Pool
	written *recycle.WrittenBits // nil unless Features.Reuse (see mdb)
	mdb     *recycle.MDB         // nil unless Features.Reuse; uses outside tryReuse test for nil

	// own holds what the core built for itself and keeps across loads
	// to reuse in place: the default models, the reuse tables (kept
	// aside while a run without Reuse leaves written and mdb nil), and
	// the data memories by partition.  Adopted models and seed memories
	// never enter it: their owner reuses them.
	own struct {
		models  Models
		written *recycle.WrittenBits
		mdb     *recycle.MDB
		mems    []*program.Memory
	}

	ctxs  []*Context
	parts []*Partition // one per program, in program order

	// inState[s] has bit i set while ctxs[i].state is s, and primary
	// has bit i set while ctxs[i].isPrimary.  Per-cycle scans walk the
	// set bits of the states they can act on, in ascending id, instead
	// of every context: on SMT all but one context per program stay
	// idle, and under recycling most of the rest are parked inactive
	// traces that fetch, rename and commit nothing.  setState and
	// setPrimary are the only writers, and CheckInvariants audits the
	// masks against the contexts.
	inState [numCtxStates]uint16
	primary uint16

	// In-flight executions awaiting completion, filed on a completion
	// wheel keyed by the cycle their result arrives.  Deletion is lazy:
	// squashes leave stale items behind, and complete() revalidates
	// each drained item against the live active list before acting.
	exec *wheel.Wheel

	// Stores whose addresses have been generated but whose data has
	// not arrived yet (second issue phase).
	pendingSt []*alist.Entry

	rrCommit int // round-robin pointer for commit bandwidth, in [0, len(ctxs))

	// Per-cycle scratch buffers, reused so the steady-state cycle loop
	// does not allocate: due collects the completions drained from the
	// wheel; cands holds the fetch/rename thread orderings.
	due   []*alist.Entry
	cands []ctxCand

	// invariantEvery, when non-zero, runs CheckInvariants every N
	// cycles (resolved from Features.InvariantEvery or the
	// siminvariant build-tag default by Load).
	invariantEvery uint64

	// watchdogCycles, when non-zero, is the forward-progress window:
	// Run fails with a *LivelockError after this many consecutive
	// cycles without a commit (resolved from Features.WatchdogCycles
	// by Load; config.WatchdogOff disables it).
	watchdogCycles uint64

	// poll, when non-nil, is consulted every pollEvery cycles by Run; a
	// non-nil return stops the run with that error and partial
	// statistics.  The cadence is counted in simulated cycles, so an
	// unfired poll cannot perturb determinism.
	poll func() error

	Stats *stats.Sim

	// Obs accumulates the run's telemetry: the rename slot-cycle
	// attribution (always on) and, when Obs.Hists is set before the
	// first cycle, the occupancy/stream/fork histograms.
	Obs *obs.Metrics

	// ring, when non-nil, records a typed event per pipeline action
	// (the flight recorder).  Every call site must be guarded with
	// `if c.ring != nil` so composing the Event costs nothing when the
	// recorder is detached — the cycle loop is required to be
	// allocation-free in steady state, and the traceguard analyzer
	// enforces the guard.
	ring *obs.Ring

	// ptrace, when non-nil, records per-instruction stage timelines
	// (the pipetrace recorder).  Same hot-path contract as ring: every
	// call site must be guarded with `if c.ptrace != nil` (traceguard
	// enforces it, for both the Core.pipeTrace helper and direct
	// pipetrace.Recorder method calls), and the recorder itself never
	// allocates while recording.
	ptrace *pipetrace.Recorder

	// Per-cycle rename slot attribution, reset by attributeSlots:
	// rename counts the slots that accepted fetched and recycled
	// instructions and records the first structural-stall cause hit.
	slotFetched  int
	slotRecycled int
	slotStall    obs.Cause

	// CommitHook, when set, observes every committed instruction.
	CommitHook func(CommitInfo)

	haltedPrograms int
}

// New builds an unloaded core for mach: it validates the machine and
// allocates the machine's buffers.  An unloaded core runs nothing —
// Run returns at once, as it does when every program has halted —
// until Load gives it programs.
func New(mach config.Machine) (*Core, error) {
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	intRegs := isa.NumIntRegs*mach.Contexts + mach.ExtraRegs
	fpRegs := isa.NumFPRegs*mach.Contexts + mach.ExtraRegs
	c := &Core{
		mach:      mach,
		rf:        regfile.New(intRegs, fpRegs),
		iqInt:     iq.New(mach.IQInt),
		iqFP:      iq.New(mach.IQFP),
		fus:       fu.New(fu.Config{IntUnits: mach.IntUnits, LSUnits: mach.LSUnits, FPUnits: mach.FPUnits}),
		exec:      wheel.New(wheelHorizon),
		pendingSt: make([]*alist.Entry, 0, mach.Contexts*4),
		due:       make([]*alist.Entry, 0, 64),
		cands:     make([]ctxCand, 0, mach.Contexts),
		Stats:     &stats.Sim{},
		Obs:       &obs.Metrics{},
	}
	for i := 0; i < mach.Contexts; i++ {
		c.ctxs = append(c.ctxs, newContext(i, mach.ActiveList))
	}
	return c, nil
}

// checkRun validates what a core's run adds to its validated machine:
// the features and one to mach.Contexts valid programs.
func checkRun(mach config.Machine, feat config.Features, progs []*program.Program) error {
	if len(progs) == 0 {
		return fmt.Errorf("core: no programs")
	}
	if len(progs) > mach.Contexts {
		return fmt.Errorf("core: %d programs exceed %d contexts", len(progs), mach.Contexts)
	}
	if err := feat.Validate(); err != nil {
		return err
	}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Load puts c into its starting state for feat and progs, one
// partition per program; the programs must number one to the
// machine's context count.  seeds[i], when non-nil, starts progs[i]'s
// primary context at a mid-program architectural state instead of the
// program entry; nil seeds or a nil entry mean a fresh start.  The core
// adopts the non-nil models in m (see Models) and takes its own for the
// rest, building them on first use and resetting them in place after.
//
// Load is the one way to a starting state, for a new core and for one
// that has run alike.  It keeps the machine and every buffer c owns —
// contexts and active lists, register file, queues, completion wheel,
// recycle tables, and the models and data memories c built for itself
// — emptied in place, so loading a core that has run allocates next to
// nothing.  Features and programs equal to the ones c runs were
// validated when c took them and are not walked again.  Every other
// field starts from its zero value: the cycle count, the commit hook,
// the poll hook and attached recorders start over, and Stats and Obs
// are cleared in place, so values read from them earlier must be
// copied first.  On error c is unchanged.
func (c *Core) Load(feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) error {
	if feat != c.feat || !c.runs(progs) {
		if err := checkRun(c.mach, feat, progs); err != nil {
			return err
		}
	}
	if err := checkSeeds(seeds, progs); err != nil {
		return err
	}
	own := &c.own
	if m.Pred == nil {
		if own.models.Pred == nil {
			own.models.Pred = bpred.New(bpred.Default(c.mach.Contexts))
		} else {
			own.models.Pred.Reset()
		}
		m.Pred = own.models.Pred
	}
	if m.Conf == nil {
		if own.models.Conf == nil {
			own.models.Conf = confidence.New(confidence.Default())
		} else {
			own.models.Conf.Reset()
		}
		m.Conf = own.models.Conf
	}
	if m.Mem == nil {
		if own.models.Mem == nil {
			own.models.Mem = cache.NewHierarchy(cache.DefaultHierarchy(c.mach.CacheScale))
		} else {
			own.models.Mem.Reset()
		}
		m.Mem = own.models.Mem
	}
	// The reuse tables gate the Reuse feature by being non-nil, so a
	// run without it leaves them nil and keeps their storage aside.
	var written *recycle.WrittenBits
	var mdb *recycle.MDB
	if feat.Reuse {
		if own.written == nil {
			own.written = recycle.NewWrittenBits(c.mach.Contexts)
			own.mdb = recycle.NewMDB(mdbCapacity)
		} else {
			own.written.Reset()
			own.mdb.Reset()
		}
		written, mdb = own.written, own.mdb
	}
	c.partition(progs)
	clear(c.pendingSt)
	clear(c.due)
	*c = Core{
		mach: c.mach, feat: feat,
		invariantEvery: feat.InvariantEvery, watchdogCycles: feat.WatchdogCycles,
		rf: c.rf, pred: m.Pred, conf: m.Conf, mem: m.Mem,
		iqInt: c.iqInt, iqFP: c.iqFP, fus: c.fus, written: written, mdb: mdb,
		ctxs: c.ctxs, parts: c.parts, own: c.own,
		exec: c.exec, pendingSt: c.pendingSt[:0], due: c.due[:0], cands: c.cands[:0],
		Stats: c.Stats, Obs: c.Obs,
	}
	if c.invariantEvery == 0 {
		c.invariantEvery = defaultInvariantEvery
	}
	if c.watchdogCycles == 0 {
		c.watchdogCycles = defaultWatchdogCycles
	} else if c.watchdogCycles == config.WatchdogOff {
		c.watchdogCycles = 0
	}
	c.rf.Reset()
	c.iqInt.Reset()
	c.iqFP.Reset()
	c.fus.Reset()
	c.exec.Reset()
	perProg := c.Stats.PerProgram
	if cap(perProg) < len(c.parts) {
		perProg = make([]uint64, len(c.parts))
	}
	perProg = perProg[:len(c.parts)]
	clear(perProg)
	*c.Stats = stats.Sim{PerProgram: perProg}
	*c.Obs = obs.Metrics{}

	for _, t := range c.ctxs {
		t.reset()
	}
	c.inState[CtxIdle] = 1<<uint(len(c.ctxs)) - 1
	for pi, part := range c.parts {
		var seed *ArchState
		if pi < len(seeds) {
			seed = seeds[pi]
		}
		*part = Partition{id: part.id, prog: part.prog, primary: part.ctxIDs[0], ctxIDs: part.ctxIDs, mask: part.mask}
		if seed != nil && seed.Mem != nil {
			part.mem = seed.Mem
		} else {
			part.mem = c.ownMemory(pi, part.prog)
		}
		for _, id := range part.ctxIDs {
			c.ctxs[id].part = part
		}
		if seed != nil {
			c.startPrimary(c.ctxs[part.primary], seed.PC, &seed.Regs)
		} else {
			c.startPrimary(c.ctxs[part.primary], part.prog.Entry, nil)
		}
	}
	return nil
}

// partition divides the contexts evenly among progs, one partition
// each in program order; leftovers go to the first partitions.  It
// reuses the Partition records and context lists c already holds.
func (c *Core) partition(progs []*program.Program) {
	per := len(c.ctxs) / len(progs)
	extra := len(c.ctxs) % len(progs)
	next := 0
	for pi, p := range progs {
		if pi == len(c.parts) {
			c.parts = append(c.parts, &Partition{})
		}
		part := c.parts[pi]
		n := per
		if pi < extra {
			n++
		}
		*part = Partition{id: pi, prog: p, ctxIDs: part.ctxIDs[:0]}
		for k := 0; k < n; k++ {
			part.ctxIDs = append(part.ctxIDs, next)
			part.mask |= 1 << uint(next)
			next++
		}
	}
	c.parts = c.parts[:len(progs)]
}

// ownMemory returns the core's own data memory for partition pi, loaded
// with p's initial image: built on first use, reloaded in place after.
func (c *Core) ownMemory(pi int, p *program.Program) *program.Memory {
	if pi >= len(c.own.mems) {
		c.own.mems = append(c.own.mems, make([]*program.Memory, pi+1-len(c.own.mems))...)
	}
	if c.own.mems[pi] == nil {
		c.own.mems[pi] = program.NewMemory(p)
	} else {
		c.own.mems[pi].Load(p)
	}
	return c.own.mems[pi]
}

// startPrimary initializes a context as a program's primary thread
// with an architectural register map: the given register values when
// regs is non-nil (a seeded mid-program start), else the fresh-start
// state of all zeros with the stack pointer at its base.
func (c *Core) startPrimary(t *Context, pc uint64, regs *[isa.NumRegs]uint64) {
	c.setState(t, CtxActive)
	c.setPrimary(t, true)
	t.fetchPC = pc
	t.hasMap = true
	for l := 1; l < isa.NumRegs; l++ {
		r, ok := c.rf.Alloc(isa.Reg(l).IsFP())
		if !ok {
			panic("core: register file too small for architectural state")
		}
		v := uint64(0)
		switch {
		case regs != nil:
			v = regs[l]
		case l == int(isa.RegSP):
			v = program.StackBase
		}
		c.rf.SetValue(r, v)
		t.mapTab[l] = r
	}
}

// setState moves t to state s, keeping the per-state masks in step.
func (c *Core) setState(t *Context, s CtxState) {
	bit := uint16(1) << uint(t.id)
	c.inState[t.state] &^= bit
	c.inState[s] |= bit
	t.state = s
}

// setPrimary marks t as its partition's primary thread or not, keeping
// the primary mask in step.
func (c *Core) setPrimary(t *Context, p bool) {
	bit := uint16(1) << uint(t.id)
	if p {
		c.primary |= bit
	} else {
		c.primary &^= bit
	}
	t.isPrimary = p
}

// unlinkParent ends t's commit gate on its parent, clearing t's bit in
// the parent's kids.
func (c *Core) unlinkParent(t *Context) {
	if t.parentCtx >= 0 {
		c.ctxs[t.parentCtx].kids &^= 1 << uint(t.id)
		t.parentCtx = -1
	}
}

// Cycle advances the machine one clock.  Stage order is reverse
// pipeline order so same-cycle effects flow naturally: results written
// back this cycle can wake instructions issuing this cycle, and
// redirects apply to the following fetch.
//
// The doc directive below marks this as the root of the steady-state
// allocation budget: the hotalloc analyzer verifies that Cycle and
// everything it transitively calls (outside nil-guarded telemetry and
// //recycle:coldpath failure handling) never allocates.
//
//recycle:hotpath
func (c *Core) Cycle() {
	c.cycle++
	c.fus.BeginCycle(c.cycle)
	c.commit()
	c.complete()
	c.issue()
	c.rename()
	c.fetch()
	c.attributeSlots()
	//simlint:ignore deadstat -- monotonic snapshot of the cycle counter, not an increment
	c.Stats.Cycles = c.cycle
	if c.invariantEvery != 0 && c.cycle%c.invariantEvery == 0 {
		c.CheckInvariants().MustOK(c.dumpState)
	}
}

// Run simulates until maxCommits instructions have committed in total,
// every program has halted, or maxCycles elapses.  It returns the
// accumulated statistics; the statistics are valid (partial) even when
// the error is non-nil.
//
// Two fault paths can cut the run short.  The forward-progress
// watchdog (Features.WatchdogCycles) returns a *LivelockError when no
// instruction commits for a full window while programs are still live,
// so a model bug that livelocks a context fails fast with a diagnosis
// instead of silently burning cycles until maxCycles.  The poll hook
// (SetPoll) stops the run with the hook's error, the mechanism behind
// cooperative cancellation.  Both checks are counted in simulated
// cycles — no wall clock — and touch nothing on the per-instruction
// hot path, so a run they do not stop is byte-identical to one without
// them.
func (c *Core) Run(maxCommits, maxCycles uint64) (*stats.Sim, error) {
	lastCommitted := c.Stats.Committed
	lastProgress := c.cycle
	for c.Stats.Committed < maxCommits && c.cycle < maxCycles &&
		c.haltedPrograms < len(c.parts) {
		c.Cycle()
		if c.watchdogCycles != 0 {
			if c.Stats.Committed != lastCommitted {
				lastCommitted = c.Stats.Committed
				lastProgress = c.cycle
			} else if c.cycle-lastProgress >= c.watchdogCycles {
				return c.Stats, c.livelockError(c.cycle - lastProgress)
			}
		}
		if c.poll != nil && c.cycle%pollEvery == 0 {
			if err := c.poll(); err != nil {
				return c.Stats, err
			}
		}
	}
	return c.Stats, nil
}

// SetPoll installs a cancellation hook consulted every 4096 simulated
// cycles during Run.  Install before the run; passing nil detaches the
// hook.
func (c *Core) SetPoll(poll func() error) { c.poll = poll }

// CycleCount returns the cycles simulated so far.
func (c *Core) CycleCount() uint64 { return c.cycle }

// Done reports whether all programs have halted.
func (c *Core) Done() bool { return c.haltedPrograms >= len(c.parts) }

// tagAddr disambiguates program address spaces in the shared caches and
// MDB; see TagAddr (in seed.go) for the scheme.
func (c *Core) tagAddr(progIdx int, addr uint64) uint64 {
	return TagAddr(progIdx, addr)
}

// entrySources returns the physical source registers for inst renamed
// in context t.
func (t *Context) entrySources(inst *isa.Inst) (s1, s2 regfile.PhysReg) {
	s1, s2 = regfile.NoReg, regfile.NoReg
	switch inst.Op {
	case isa.OpNop, isa.OpHalt, isa.OpLi, isa.OpJ, isa.OpJal:
		return
	}
	s1 = t.mapOf(inst.Rs1)
	if inst.ReadsRs2() {
		s2 = t.mapOf(inst.Rs2)
	}
	return
}

// undoEntry rolls back one squashed active-list entry: the current map
// ref on the new mapping is released and the displaced mapping returns
// to the map table.
func (c *Core) undoEntry(t *Context, e *alist.Entry) {
	if e.Inst.WritesReg() && e.NewMap != regfile.NoReg {
		t.mapTab[e.Inst.Rd] = e.OldMap
		c.rf.Release(e.NewMap)
		// The squash stales this context's column for the register: if
		// the primary reuse-installed this entry's mapping (which
		// cleared the bit), the trace's view and the primary's mapping
		// no longer agree, so future reuse of this register from this
		// trace must be blocked.
		if c.written != nil {
			c.written.MarkWritten(e.Inst.Rd, 1<<uint(t.id))
		}
	}
	if e.Reused && e.ReuseSrc >= 0 && e.ReuseSrc < len(c.ctxs) {
		if c.ctxs[e.ReuseSrc].outstandingReuse > 0 {
			c.ctxs[e.ReuseSrc].outstandingReuse--
		}
	}
	if c.ptrace != nil {
		c.ptrace.OnSquash(e.Trace, c.cycle)
	}
	c.Stats.Squashed++
}

// removeFromBack removes a squashed range from the instruction queues,
// the pending-store list and the store queue.  The completion wheel is
// left alone: its items are revalidated against the live active list
// when their slot drains, so squashed entries simply fall out then.
func (c *Core) removeFromBack(ctx int, fromSeq uint64) {
	match := func(e *alist.Entry) bool { return e.Ctx == ctx && e.Seq >= fromSeq }
	if c.iqInt.CountCtx(ctx) != 0 {
		c.iqInt.RemoveIf(match)
	}
	if c.iqFP.CountCtx(ctx) != 0 {
		c.iqFP.RemoveIf(match)
	}
	ps := c.pendingSt[:0]
	for _, e := range c.pendingSt {
		if !match(e) {
			ps = append(ps, e)
		}
	}
	for i := len(ps); i < len(c.pendingSt); i++ {
		c.pendingSt[i] = nil
	}
	c.pendingSt = ps

	c.ctxs[ctx].sq.dropFrom(fromSeq)
}

// SetRing attaches (or, with nil, detaches) a flight recorder.  The
// ring receives one typed event per pipeline action; attach it before
// the first cycle for a complete record.
func (c *Core) SetRing(r *obs.Ring) { c.ring = r }

// FlightRing returns the attached flight recorder, or nil.
func (c *Core) FlightRing() *obs.Ring { return c.ring }

// squashFrom removes every instruction in ctx with Seq >= seq, plus any
// child contexts forked from the squashed range (recursively).
func (c *Core) squashFrom(ctx int, seq uint64) {
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageSquash,
			Ctx: int16(ctx), Seq: seq, Arg: c.ctxs[ctx].al.TailSeq()})
	}
	t := c.ctxs[ctx]
	// Children forked off squashed branches die entirely.  A recursive
	// kill can idle a context still in the snapshot, hence the state
	// test.
	for m := t.kids; m != 0; m &= m - 1 {
		cc := c.ctxs[bits.TrailingZeros16(m)]
		if cc.state != CtxIdle && cc.parentSeq >= seq {
			c.killContext(cc)
		}
	}
	t.al.SquashFrom(seq, func(e *alist.Entry) { c.undoEntry(t, e) })
	if c.feat.Recycle {
		t.mp.DropFrom(seq)
	}
	c.removeFromBack(ctx, seq)
	// Any in-progress recycle stream and queued fetches are stale.
	t.stream = nil
	t.fqClear()
	t.fetchHalted = false
}

// releaseMapRefs drops all register references held by the context's
// current map table.
func (c *Core) releaseMapRefs(t *Context) {
	if !t.hasMap {
		return
	}
	c.rf.ReleaseAll(t.mapTab[1:])
	for l := range t.mapTab {
		t.mapTab[l] = regfile.NoReg
	}
	t.hasMap = false
}

// finishPath closes out a fork-path statistics record.
func (c *Core) finishPath(t *Context) {
	if !t.path.live {
		return
	}
	c.Stats.ForksDeleted++
	if c.Obs.Hists {
		c.Obs.ForkLife.Observe(c.cycle - t.path.spawnCycle)
	}
	if t.path.usedTME {
		c.Stats.ForksUsedTME++
	}
	if t.path.recycled {
		c.Stats.ForksRecycled++
		c.Stats.AltMergeTotal += uint64(t.path.merges)
	}
	if t.path.respawned {
		c.Stats.ForksRespawned++
	}
	t.path = forkPath{}
}

// killContext fully reclaims a context: every uncommitted entry is
// squashed, retained history dropped, and all register references
// (active list and map table) released.  The context returns to idle.
func (c *Core) killContext(t *Context) {
	if t.state == CtxIdle {
		return
	}
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageKill,
			Ctx: int16(t.id), Seq: t.parentSeq, PC: t.fetchPC, Arg: uint64(t.state)})
	}
	// Recursively kill this context's own children first.
	for m := t.kids; m != 0; m &= m - 1 {
		if cc := c.ctxs[bits.TrailingZeros16(m)]; cc.state != CtxIdle {
			c.killContext(cc)
		}
	}
	t.al.SquashAll(func(e *alist.Entry) { c.undoEntry(t, e) })
	c.removeFromBack(t.id, 0)
	c.releaseMapRefs(t)
	c.finishPath(t)
	t.al.Reset()
	if c.feat.Recycle {
		t.mp.Invalidate()
	}
	t.fqClear()
	t.sq.clear()
	t.stream = nil
	c.setState(t, CtxIdle)
	c.setPrimary(t, false)
	c.unlinkParent(t)
	t.fetchHalted = false
	t.altCapped = false
	t.pathLen = 0
	t.outstandingReuse = 0
}
