// Package pipetrace records per-instruction pipeline lifecycles: for
// every traced dynamic instruction, the cycle it entered each stage it
// actually visited (fetch or recycle-inject, rename, queue, issue or
// reuse-bypass, writeback, commit or squash), plus instants for the
// multipath lifecycle transitions (forks, merges, respawns) with the
// stage enums reused from internal/obs.
//
// The recorder is the aggregate telemetry's (internal/obs) microscope:
// counters can say "12% of renamed instructions were recycled", a
// pipetrace shows *this* instruction entering rename on cycle 4012 with
// no fetch stage at all.  The paper's central claims — recycled
// instructions bypass fetch/decode (§3.4), reused instructions bypass
// issue and execution (§3.5), re-spawn reactivates a context through
// the recycle datapath (§3.1) — become directly inspectable.
//
// The hot-path contract matches the flight recorder's: recording never
// allocates.  All storage is preallocated at construction and capped
// (records and instants beyond the caps are counted, not stored), and
// every core call site is nil-guarded so a detached recorder costs
// nothing (the traceguard analyzer enforces the guards).  Sampling
// controls — 1-in-N dynamic instructions, a PC range, a cycle window —
// keep a trace of a multi-million-instruction run bounded.
//
// The exporters (chrome.go, konata.go) allocate freely; they run once
// after the simulation, and their output is deterministic: identical
// runs produce byte-identical trace files.
package pipetrace

import (
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
)

// Handle identifies a traced in-flight instruction at the hot-path call
// sites: 0 means untraced (sampled out, filtered out, or over the cap),
// any other value is the record index plus one.  The core stores the
// handle in the active-list entry; the ring's slot reuse resets it to 0
// automatically when the slot is re-renamed.
type Handle = int32

// Config bounds what the recorder keeps.
type Config struct {
	// SampleEvery traces 1 in N renamed dynamic instructions (counted
	// across all contexts in rename order).  0 and 1 both mean "every
	// instruction".
	SampleEvery uint64

	// PCMin/PCMax restrict tracing to instructions whose PC lies in
	// [PCMin, PCMax].  Both zero disables the filter.
	PCMin, PCMax uint64

	// CycleMin/CycleMax restrict tracing to instructions *renamed*
	// within [CycleMin, CycleMax] (later stage marks of a traced
	// instruction are always recorded).  CycleMax zero means unbounded.
	CycleMin, CycleMax uint64

	// MaxRecords caps stored instruction records (default 1<<16);
	// instructions traced past the cap increment TruncatedRecords
	// instead.  Clamped so a record index always fits a Handle.
	MaxRecords int

	// MaxInstants caps stored lifecycle instants (default 1<<12), with
	// TruncatedInstants counting the overflow.
	MaxInstants int
}

// Record is one traced dynamic instruction's stage timeline.  A stage
// field holds the cycle the instruction entered that stage, or 0 when
// it never did (the core's cycle counter starts at 1, so 0 is
// unambiguous).  The legal shapes — reused implies no queue/issue/
// writeback, recycled implies no fetch, squashed implies no retire —
// are enforced by the core's invariant checker.
type Record struct {
	ID   uint64 // dense allocation order, also the trace-viewer span id
	Ctx  int16  // hardware context that renamed it
	Seq  uint64 // active-list sequence number in that context
	PC   uint64
	Inst isa.Inst

	Recycled  bool // entered rename through the recycle datapath (no fetch)
	Reused    bool // bypassed issue/execute via instruction reuse
	Squashed  bool
	Committed bool

	Fetch     uint64 // entered the fetch queue (0 for recycled entries)
	Rename    uint64 // always set
	Queue     uint64 // entered an instruction queue
	Issue     uint64 // issued to a functional unit (execution begins)
	Writeback uint64 // result written back (execution ends)
	Retire    uint64 // committed
	Squash    uint64 // squashed
}

// Instant is one lifecycle transition (fork, merge, respawn) recorded
// outside any single instruction's timeline.  Stage reuses the
// internal/obs enum; Arg carries the stage-specific payload (the
// spawned or source context id).
type Instant struct {
	Cycle uint64
	PC    uint64
	Arg   uint64
	Stage obs.Stage
	Ctx   int16
}

// Recorder collects Records and Instants.  Construct with New; the
// zero Recorder has no storage and drops everything.
type Recorder struct {
	cfg  Config
	recs []Record
	inst []Instant

	seen       uint64 // renamed dynamic instructions observed (sampling base)
	truncRecs  uint64
	truncInsts uint64
}

// New builds a recorder with the given bounds, preallocating all
// record storage so the hot-path hooks never allocate.
func New(cfg Config) *Recorder {
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 1 << 16
	}
	if cfg.MaxRecords > 1<<31-2 {
		cfg.MaxRecords = 1<<31 - 2 // index+1 must fit a Handle
	}
	if cfg.MaxInstants <= 0 {
		cfg.MaxInstants = 1 << 12
	}
	return &Recorder{
		cfg:  cfg,
		recs: make([]Record, 0, cfg.MaxRecords),
		inst: make([]Instant, 0, cfg.MaxInstants),
	}
}

// OnRename observes one renamed dynamic instruction and decides whether
// to trace it.  fetchCycle is the cycle the instruction entered the
// fetch queue, or 0 for recycle-injected instructions, which never
// fetched.  The returned handle is 0 when the instruction is not
// traced; the caller passes it to every later stage mark.
//
// Every stage-mark method below runs inside the cycle loop when a
// recorder is attached, so each is on the steady-state allocation
// budget (//recycle:hotpath); the append targets keep their
// preallocated capacity, so a full recorder truncates instead of
// growing.
//
//recycle:hotpath
func (r *Recorder) OnRename(cycle uint64, ctx int, seq, pc uint64, in isa.Inst, fetchCycle uint64, recycled bool) Handle {
	r.seen++
	if n := r.cfg.SampleEvery; n > 1 && (r.seen-1)%n != 0 {
		return 0
	}
	if r.cfg.PCMax != 0 && (pc < r.cfg.PCMin || pc > r.cfg.PCMax) {
		return 0
	}
	if cycle < r.cfg.CycleMin || (r.cfg.CycleMax != 0 && cycle > r.cfg.CycleMax) {
		return 0
	}
	if len(r.recs) == cap(r.recs) {
		r.truncRecs++
		return 0
	}
	r.recs = append(r.recs, Record{
		ID:       uint64(len(r.recs)),
		Ctx:      int16(ctx),
		Seq:      seq,
		PC:       pc,
		Inst:     in,
		Recycled: recycled,
		Fetch:    fetchCycle,
		Rename:   cycle,
	})
	return Handle(len(r.recs))
}

// rec resolves a handle; nil for the untraced handle 0.  The records
// slice never reallocates (append is bounded by the preallocated cap),
// so the pointer stays valid.
func (r *Recorder) rec(h Handle) *Record {
	if h <= 0 {
		return nil
	}
	return &r.recs[h-1]
}

// OnQueue marks entry into an instruction queue (dispatch).
//
//recycle:hotpath
func (r *Recorder) OnQueue(h Handle, cycle uint64) {
	if rec := r.rec(h); rec != nil {
		rec.Queue = cycle
	}
}

// OnReuse marks the reuse bypass: the instruction adopted its old
// result at rename and will never queue, issue, or write back.  The
// rename cycle is its mark.
//
//recycle:hotpath
func (r *Recorder) OnReuse(h Handle) {
	if rec := r.rec(h); rec != nil {
		rec.Reused = true
	}
}

// OnIssue marks issue to a functional unit (execution begins).
//
//recycle:hotpath
func (r *Recorder) OnIssue(h Handle, cycle uint64) {
	if rec := r.rec(h); rec != nil {
		rec.Issue = cycle
	}
}

// OnWriteback marks result writeback (execution ends).
//
//recycle:hotpath
func (r *Recorder) OnWriteback(h Handle, cycle uint64) {
	if rec := r.rec(h); rec != nil {
		rec.Writeback = cycle
	}
}

// OnCommit marks in-order retirement.
//
//recycle:hotpath
func (r *Recorder) OnCommit(h Handle, cycle uint64) {
	if rec := r.rec(h); rec != nil {
		rec.Committed = true
		rec.Retire = cycle
	}
}

// OnSquash marks the instruction squashed (mispredict recovery, context
// kill, or reclaim).
//
//recycle:hotpath
func (r *Recorder) OnSquash(h Handle, cycle uint64) {
	if rec := r.rec(h); rec != nil {
		rec.Squashed = true
		rec.Squash = cycle
	}
}

// Instant records one lifecycle transition (fork, merge, respawn).
//
//recycle:hotpath
func (r *Recorder) Instant(cycle uint64, stage obs.Stage, ctx int, pc, arg uint64) {
	if len(r.inst) == cap(r.inst) {
		r.truncInsts++
		return
	}
	r.inst = append(r.inst, Instant{Cycle: cycle, Stage: stage, Ctx: int16(ctx), PC: pc, Arg: arg})
}

// Records returns the stored records in allocation (rename) order.  The
// slice aliases the recorder's storage; callers must not append.
func (r *Recorder) Records() []Record { return r.recs }

// Instants returns the stored lifecycle instants in recording order.
func (r *Recorder) Instants() []Instant { return r.inst }

// Seen returns the number of renamed dynamic instructions observed
// (before sampling and filtering).
func (r *Recorder) Seen() uint64 { return r.seen }

// TruncatedRecords counts instructions that passed sampling and
// filtering but were dropped because MaxRecords was reached.
func (r *Recorder) TruncatedRecords() uint64 { return r.truncRecs }

// TruncatedInstants counts lifecycle instants dropped at MaxInstants.
func (r *Recorder) TruncatedInstants() uint64 { return r.truncInsts }
