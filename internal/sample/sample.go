package sample

import (
	"errors"
	"fmt"
	"io"

	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/stats"
	"recyclesim/internal/sweep"
)

// Config tunes the sampling schedule.  The schedule is systematic and
// seedless, hence deterministic: with period P, interval length L, and
// detailed warmup W, interval k covers instructions [k*P, (k+1)*P) —
// functional fast-forward with warmup over the first P-W-L, W detailed
// detached-warmup instructions, and the final L instructions measured.
// Measuring the tail of each period maximizes the functional +
// detailed warmup behind every measurement.
//
// Config is the only declaration of a schedule: the facade's Sampling
// is an alias, and the job API and result store carry it as it is.
// The JSON form holds the schedule alone — zero fields are omitted and
// select the defaults of WithDefaults — while Workers and Poll are
// host-side knobs that never reach the wire or a store key.
type Config struct {
	Period      uint64 `json:"period,omitempty"`   // P: sampling period in instructions (default 20_000)
	IntervalLen uint64 `json:"interval,omitempty"` // L: measured instructions per interval (default 1_000)
	WarmupLen   uint64 `json:"warmup,omitempty"`   // W: detailed detached-warmup instructions (default 1_000)

	// Confidence selects the Student-t level for the IPC interval:
	// 0.90, 0.95 (default, also chosen for 0), or 0.99, matched to the
	// nearest percent; Validate rejects any other level.  It is part of
	// a sampled cell's identity, not just a label, because it changes
	// the bounds a result reports.
	Confidence float64 `json:"confidence,omitempty"`

	// Workers bounds interval-simulation parallelism (<= 0 selects
	// GOMAXPROCS).  Intervals are fully independent — each owns its
	// checkpoint and a private copy of the warmed models — so results
	// are byte-identical for every worker count.  With more than one
	// worker the checkpoint pass runs alongside them on the calling
	// goroutine.
	Workers int `json:"-"`

	// Poll, when non-nil, is the cooperative-cancellation hook: it is
	// consulted between periods of the checkpoint pass and threaded
	// into each interval's detailed core (core.SetPoll), so with more
	// than one worker it is called concurrently.  A non-nil return
	// abandons the run with that error.
	Poll func() error `json:"-"`
}

// seedsPerWorker and maxSeeds size Run's pool of seed slots (checkpoint,
// warmed-model buffer of ~1.7 MB, mostly L3 tags, data memory and
// detailed core; see seedSlot): each resolved worker gets one slot to
// simulate and one queued behind it, up to maxSeeds in all, so the pool
// grows with the parallelism that consumes it, never with the run's
// length, and never past 64 model copies however many workers there
// are.
const (
	seedsPerWorker = 2
	maxSeeds       = 64
)

// WithDefaults returns cfg with every zero schedule field replaced by
// its default (period 20_000, interval 1_000, warmup 1_000, confidence
// 0.95).  It is the one default table: Run simulates the schedule it
// returns and store.CellKey keys it, so a schedule with zero fields
// and the same schedule spelled out share a stored record.
func (cfg Config) WithDefaults() Config {
	if cfg.Period == 0 {
		cfg.Period = 20_000
	}
	if cfg.IntervalLen == 0 {
		cfg.IntervalLen = 1_000
	}
	if cfg.WarmupLen == 0 {
		cfg.WarmupLen = 1_000
	}
	//simlint:ignore floatcmp -- exact zero means "unset", selects the default
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.95
	}
	return cfg
}

// Validate reports whether Run accepts the schedule over a budget of
// maxInsts instructions, with zero fields standing for their defaults:
// interval plus warmup must fit in the period, the confidence level
// must round to 90, 95 or 99 percent, and the budget must cover at
// least one period.  Run calls it, and command-line front ends call it
// before any cell runs, so a schedule Run would refuse is a bad flag.
func (cfg Config) Validate(maxInsts uint64) error {
	cfg = cfg.WithDefaults()
	if cfg.IntervalLen+cfg.WarmupLen > cfg.Period {
		return fmt.Errorf("sample: interval %d + warmup %d exceed period %d",
			cfg.IntervalLen, cfg.WarmupLen, cfg.Period)
	}
	switch int(cfg.Confidence*100 + 0.5) { // stats.TCritical's rounding
	case 90, 95, 99:
	default:
		return fmt.Errorf("sample: confidence %v is not one of 0.90, 0.95 and 0.99", cfg.Confidence)
	}
	if maxInsts < cfg.Period {
		return fmt.Errorf("sample: budget %d smaller than one period %d; use a full detailed run",
			maxInsts, cfg.Period)
	}
	return nil
}

// Interval is one detailed measurement interval's result.
type Interval struct {
	Index     int
	StartInst uint64    // retired count where measurement began
	Insts     uint64    // instructions committed in the measured region
	Cycles    uint64    // cycles spent in the measured region
	CPI       float64   // Cycles / Insts
	Stats     stats.Sim // measured-region counter deltas (per-interval attribution)
}

// Result is a sampled run's estimate.
type Result struct {
	Program     string
	Machine     string
	Features    string
	Period      uint64
	IntervalLen uint64
	WarmupLen   uint64
	Confidence  float64

	Intervals []Interval

	// Measured sums the per-interval counter deltas, so the recycling
	// and branch statistics of the measured regions remain available
	// (feeding, e.g., Table 1 style decompositions of sampled runs).
	Measured stats.Sim

	MeanCPI float64 // mean of per-interval CPI samples
	CPIHalf float64 // Student-t half-width around MeanCPI

	IPC   float64 // 1 / MeanCPI
	IPCLo float64 // 1 / (MeanCPI + CPIHalf)
	IPCHi float64 // 1 / (MeanCPI - CPIHalf); 0 when the interval reaches 0 CPI

	TotalInsts    uint64 // instructions covered by the schedule (intervals * period)
	DetailedInsts uint64 // instructions simulated in detail (incl. detached warmup)
	MeasuredInsts uint64 // instructions inside measured regions
}

// RelErrPct returns the half-width of the IPC confidence interval as a
// percentage of the estimate (0 for a degenerate estimate).
func (r *Result) RelErrPct() float64 {
	if !(r.MeanCPI > 0) {
		return 0
	}
	return 100 * r.CPIHalf / r.MeanCPI
}

// WriteText renders the sampled estimate deterministically; the
// determinism witness tests compare these bytes across runs and worker
// counts.
func (r *Result) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "sampled    %s %s %s: period=%d interval=%d warmup=%d intervals=%d\n",
		r.Program, r.Machine, r.Features, r.Period, r.IntervalLen, r.WarmupLen, len(r.Intervals)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "IPC        %.4f  CI%.0f%% [%.4f, %.4f]  (CPI %.4f ± %.4f, ±%.2f%%)\n",
		r.IPC, 100*r.Confidence, r.IPCLo, r.IPCHi, r.MeanCPI, r.CPIHalf, r.RelErrPct()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "coverage   measured %d of %d insts (detailed %d); %d cycles in measured regions\n",
		r.MeasuredInsts, r.TotalInsts, r.DetailedInsts, r.Measured.Cycles)
	return err
}

// Run estimates the IPC of one program on the given machine and
// feature set over the first maxInsts instructions, using sampled
// simulation.  The run is deterministic: the same inputs produce
// byte-identical Results for every worker count.
func Run(mach config.Machine, feat config.Features, prog *program.Program, maxInsts uint64, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(maxInsts); err != nil {
		return nil, err
	}
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	if err := feat.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	st, ok := idleRuns.Get()
	if !ok {
		st = &runState{}
	}
	res, err := st.run(mach, feat, prog, maxInsts, cfg)
	if err != nil {
		// A poll error, a failed interval, a contained panic, a
		// program halting before one period: the state may be left
		// mid-run, so a failed run drops it.
		return nil, err
	}
	// The cores let go of this run's poll hook before the state waits
	// for the next run.
	for _, sp := range st.slots {
		if sp != nil {
			sp.c.SetPoll(nil)
		}
	}
	idleRuns.Put(st)
	return res, nil
}

// run is Run on st: it resets st's master for mach, loads prog into
// st's initial image and emulator, then runs the checkpoint pass and
// the intervals on st's seed slots.
func (st *runState) run(mach config.Machine, feat config.Features, prog *program.Program, maxInsts uint64, cfg Config) (*Result, error) {
	// Checkpoint pass: one functional sweep over the run with
	// *continuous* warming — a single master Warmup observes every
	// instruction, so at each measurement point the models carry the
	// state they would have accumulated since program start (SMARTS
	// functional warming).  At each measurement start the pass captures
	// an architectural checkpoint and copies the warm models into a
	// pooled buffer; the detailed intervals consume those snapshots in
	// parallel without re-executing any fast-forward work, each core
	// adopting its buffer's models as its own.
	//
	// The pass and the intervals run as a pipeline over a pool of
	// seedsPerWorker seed slots per resolved worker (sweep.Pipeline):
	// the pass fills a free slot, capturing the checkpoint into the
	// slot's reused delta buffer and copying the master into its model
	// buffer in place (Warmup.CloneInto), and moves on while a worker
	// simulates the interval; the slot returns to the pool when its
	// interval ends.  A run thus holds a fixed handful of model copies,
	// data memories and detailed cores however many intervals it has,
	// and the sequential pass overlaps the parallel intervals instead of
	// waiting for them.  The state outlives the run: the master, the
	// emulator, the initial image and the slots come from the last clean
	// run when one left them (see runState), reset in place for this
	// run's machine and program.  None of this affects the estimate:
	// the pass is sequential and starts from a master and an emulator in
	// exactly their freshly built state, every interval starts from an
	// exact copy of the master on a core in exactly its freshly built
	// state (core.Load), and every interval writes its own result slot.
	st.master.Reset(mach)
	st.base.Load(prog)
	st.e.Reset(prog)
	base, e, master := &st.base, &st.e, &st.master
	nMax := int(maxInsts / cfg.Period)
	ff := cfg.Period - cfg.IntervalLen - cfg.WarmupLen
	ivals := make([]Interval, nMax)
	errs := make([]error, nMax)
	n := 0 // intervals produced by the pass
	var passErr error
	produce := func(s int) bool {
		if n == nMax || e.Halted {
			return false
		}
		if cfg.Poll != nil {
			if passErr = cfg.Poll(); passErr != nil {
				return false
			}
		}
		master.fastForward(e, ff)
		if e.Halted {
			return false
		}
		sp := st.slot(s)
		sp.k = n
		sp.cp.capture(e, base)
		master.CloneInto(&sp.w)
		master.fastForward(e, cfg.WarmupLen+cfg.IntervalLen)
		if e.Halted {
			// The program ended inside the measured tail of this
			// period: the interval is truncated, so drop it.
			return false
		}
		n++
		return true
	}
	consume := func(s int) {
		sp := st.slots[s]
		if cfg.Poll != nil {
			if err := cfg.Poll(); err != nil {
				errs[sp.k] = err
				return
			}
		}
		ivals[sp.k], errs[sp.k] = sp.runInterval(mach, feat, prog, base, cfg)
		ivals[sp.k].Index = sp.k
	}
	sweep.Pipeline(min(seedsPerWorker*sweep.Workers(cfg.Workers), maxSeeds), cfg.Workers, produce, consume)
	if passErr != nil {
		return nil, passErr
	}
	ivals, errs = ivals[:n], errs[:n]
	if n == 0 {
		return nil, fmt.Errorf("sample: %s halts before one full period (%d insts); use a full detailed run",
			prog.Name, cfg.Period)
	}
	var fails []error
	for k, err := range errs {
		if err != nil {
			fails = append(fails, fmt.Errorf("interval %d: %w", k, err))
		}
	}
	if len(fails) > 0 {
		return nil, errors.Join(fails...)
	}

	res := &Result{
		Program:     prog.Name,
		Machine:     mach.Name,
		Features:    config.FeatureName(feat),
		Period:      cfg.Period,
		IntervalLen: cfg.IntervalLen,
		WarmupLen:   cfg.WarmupLen,
		Confidence:  cfg.Confidence,
		Intervals:   ivals,
		TotalInsts:  uint64(n) * cfg.Period,
	}
	samples := make([]float64, n)
	for k := range ivals {
		samples[k] = ivals[k].CPI
		res.Measured.Add(&ivals[k].Stats)
		res.MeasuredInsts += ivals[k].Insts
		res.DetailedInsts += cfg.WarmupLen + ivals[k].Insts
	}
	res.MeanCPI, res.CPIHalf = stats.MeanCI(samples, cfg.Confidence)
	if res.MeanCPI > 0 {
		res.IPC = 1 / res.MeanCPI
		res.IPCLo = 1 / (res.MeanCPI + res.CPIHalf)
		if lo := res.MeanCPI - res.CPIHalf; lo > 0 {
			res.IPCHi = 1 / lo
		}
	}
	return res, nil
}

// runState is what a sampled run builds: the checkpoint pass's master
// models, the program's initial image, the pass's emulator and the seed
// slots, each built on first use.  None of it depends on the run's
// machine, program, features or schedule once reset, so a clean run
// leaves it in idleRuns and the next run resets it in place instead of
// building it again: the master by Warmup.Reset, the image and the
// emulator by reloading the program, and each slot's parts by the pass
// and the interval that use it next (its checkpoint and model copy are
// overwritten, its data memory copied, its core loaded with the new
// machine, program and features).
type runState struct {
	master Warmup
	base   program.Memory
	e      emu.Emulator
	slots  [maxSeeds]*seedSlot
}

// idleRuns keeps the state of clean sampled runs for Run to reset in
// place rather than build anew (see sweep.FreeList for how many it
// keeps).
var idleRuns sweep.FreeList[*runState]

// slot returns seed slot s, adding it on first use.
func (st *runState) slot(s int) *seedSlot {
	if st.slots[s] == nil {
		st.slots[s] = &seedSlot{}
	}
	return st.slots[s]
}

// seedSlot is one buffer of Run's seed pool: what the checkpoint pass
// fills for an interval, and what the interval builds from it.  Every
// part is reused by the slot's next interval, in this run or a later
// one.
type seedSlot struct {
	k  int        // interval index
	cp Checkpoint // measurement-start state; its delta buffer is reused
	w  Warmup     // copy of the master models, adopted by the core

	mem  program.Memory // the interval's data memory: base plus cp's delta
	arch core.ArchState // the core's seed, on mem
	c    core.Core      // loaded by every interval
}

// runInterval restores the slot's checkpoint into its data memory,
// loads its detailed core in place with this run's machine, program
// and features on the slot's private copy of the continuously warmed
// models (the core trains them in place, so w is spent once this
// returns), runs the detached warmup, and measures the interval.  A
// panic inside the core is contained into the interval's error so one
// bad interval cannot take down a parallel sampled sweep; a failed
// interval drops the slot's core, so the next one starts from an idle
// one.
func (s *seedSlot) runInterval(mach config.Machine, feat config.Features, prog *program.Program, base *program.Memory, cfg Config) (iv Interval, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in detailed interval: %v", r)
		}
		if err != nil {
			s.c = core.Core{}
		}
	}()

	s.mem.CopyFrom(base)
	if err := s.cp.restore(prog, &s.mem); err != nil {
		return iv, err
	}
	s.arch = core.ArchState{PC: s.cp.PC, Regs: s.cp.Regs, Mem: &s.mem}
	progs, seeds := []*program.Program{prog}, []*core.ArchState{&s.arch}
	c := &s.c
	if err = c.Load(mach, feat, progs, seeds, s.w.Models); err != nil {
		return iv, err
	}
	if cfg.Poll != nil {
		c.SetPoll(cfg.Poll)
	}

	// Every run's cycle budget, core.MaxCPI cycles per instruction,
	// over warmup plus interval, plus 10_000 cycles of slack.
	budget := core.MaxCPI*(cfg.WarmupLen+cfg.IntervalLen) + 10_000
	if _, err := c.Run(cfg.WarmupLen, budget); err != nil {
		return iv, fmt.Errorf("detached warmup: %w", err)
	}
	snap := *c.Stats
	snap.PerProgram = append([]uint64(nil), c.Stats.PerProgram...)
	if _, err := c.Run(cfg.WarmupLen+cfg.IntervalLen, budget); err != nil {
		return iv, fmt.Errorf("measured region: %w", err)
	}

	delta := *c.Stats
	delta.PerProgram = append([]uint64(nil), c.Stats.PerProgram...)
	delta.Sub(&snap)
	if delta.Committed == 0 {
		return iv, fmt.Errorf("nothing committed in measured region (cycles %d..%d)", snap.Cycles, c.Stats.Cycles)
	}
	iv.StartInst = s.cp.Retired + snap.Committed
	iv.Insts = delta.Committed
	iv.Cycles = delta.Cycles
	iv.CPI = float64(delta.Cycles) / float64(delta.Committed)
	iv.Stats = delta
	return iv, nil
}
