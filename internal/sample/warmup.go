package sample

import (
	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
)

// warmupLine is the I-side granularity of functional warmup: one
// I-cache touch per 64-byte line change, matching the fetch stage's
// one-AccessI-per-block behaviour closely enough to warm the same
// lines.
const warmupLine = 64

// Warmup functionally warms the long-lived microarchitectural models —
// branch predictor, confidence estimator, and cache hierarchy — from
// the emulator's instruction stream during fast-forward, so a detailed
// measurement interval starts with the state those structures would
// have accumulated over the whole run.  One Warmup instance observes
// the entire instruction stream (warming is continuous from program
// start, as in SMARTS functional warming); CloneInto snapshots it into
// a reused buffer at each measurement point.  The models are built with
// the same default configurations a core's own models use and are meant
// to be adopted by a seeded core: Run hands each interval's copy to
// core.Core.Load as its Models.
//
// The warmup mirrors the core's primary-path training exactly: Lookup,
// speculative history update, history repair on a mispredict, and
// commit-time PHT/BTB/confidence training — driven by the
// architectural stream, which is precisely the primary path's commit
// stream.  Observe spells those four predictor calls out; fastForward,
// which sampled runs use, trains through bpred.Predictor.Train, one
// call per branch with the same net effect.  Wrong-path pollution and
// the recycle/reuse tables (written bits, MDB, active-list traces) are
// not modelled; those stay cold at interval entry, which is the
// documented bias of sampled mode.
type Warmup struct {
	Pred *bpred.Predictor
	Conf *confidence.Estimator
	Mem  *cache.Hierarchy

	progIdx  int
	now      uint64 // pseudo-cycle driving cache timing/LRU state
	lastLine uint64
	haveLine bool
}

// NewWarmup builds fresh default models for the machine, matching the
// models a core builds for itself.
func NewWarmup(mach config.Machine) *Warmup {
	return &Warmup{
		Pred: bpred.New(bpred.Default(mach.Contexts)),
		Conf: confidence.New(confidence.Default()),
		Mem:  cache.NewHierarchy(cache.DefaultHierarchy(mach.CacheScale)),
	}
}

// Reset puts w back into exactly the state NewWarmup builds for its
// machine, emptying the models in place (bpred.Predictor.Reset,
// confidence.Estimator.Reset, cache.Hierarchy.Reset), so a master
// warmed for one sampled run starts the next run on the machine cold
// without building its models again.
func (w *Warmup) Reset() {
	w.Pred.Reset()
	w.Conf.Reset()
	w.Mem.Reset()
	*w = Warmup{Pred: w.Pred, Conf: w.Conf, Mem: w.Mem}
}

// Clone deep-copies the warmup state — models and line-tracking — so a
// measurement interval can hand a private snapshot of the continuously
// warmed models to its detailed core while the master warmup keeps
// advancing.  Run copies into reused buffers with CloneInto; Clone
// stays for the benchmark's sampled replay (bench/sampled.go).
func (w *Warmup) Clone() *Warmup { return w.CloneInto(&Warmup{}) }

// CloneInto is Clone into a reused buffer: it overwrites dst with a
// deep copy of w through the models' CopyFrom, so a dst filled before
// from the same machine allocates nothing.  Nil models in dst are
// built fresh.  It returns dst.
func (w *Warmup) CloneInto(dst *Warmup) *Warmup {
	pred, conf, mem := dst.Pred, dst.Conf, dst.Mem
	if pred == nil {
		pred = &bpred.Predictor{}
	}
	if conf == nil {
		conf = &confidence.Estimator{}
	}
	if mem == nil {
		mem = &cache.Hierarchy{}
	}
	pred.CopyFrom(w.Pred)
	conf.CopyFrom(w.Conf)
	mem.CopyFrom(w.Mem)
	*dst = *w
	dst.Pred, dst.Conf, dst.Mem = pred, conf, mem
	return dst
}

// Observe feeds one architecturally executed instruction into the
// models.  Context 0 is warmed (the seeded core's primary context);
// addresses are tagged exactly as the core tags them so the shared
// structures see the same index/tag streams.  Sampled runs warm
// through fastForward instead; Observe is the reference its tests
// compare against, one StepInfo at a time.
//
//recycle:hotpath
func (w *Warmup) Observe(si *emu.StepInfo) {
	w.now++
	line := si.PC / warmupLine
	if !w.haveLine || line != w.lastLine {
		w.Mem.AccessI(w.now, core.TagAddr(w.progIdx, si.PC))
		w.lastLine = line
		w.haveLine = true
	}

	in := &si.Inst
	if in.IsBranch() {
		var pr bpred.Pred
		w.Pred.Lookup(0, si.PC, in, &pr)
		w.Pred.SpecUpdate(0, in, si.PC, &pr)
		correct := pr.Taken == si.Taken && (!si.Taken || pr.Target == si.Next)
		if !correct {
			w.Pred.Restore(0, in, &pr, si.Taken)
		}
		w.Pred.Commit(si.PC, in, &pr, si.Taken, si.Next)
		if in.IsCondBranch() {
			w.Conf.Update(core.TagAddr(w.progIdx, si.PC), pr.Taken == si.Taken)
		}
	}

	if in.IsMem() {
		w.Mem.AccessD(w.now, core.TagAddr(w.progIdx, si.Addr))
	}
}

// fastForward executes up to n instructions of e, stopping early at a
// halt, and warms the models with each one as it goes: one loop body
// does what emu.StepInto followed by Observe does, through the same isa
// helpers, without writing a StepInfo between the two.  The
// differential test pins it to that pair, halting step included: the
// halt touches its I-line but retires nothing.
//
//recycle:hotpath
func (w *Warmup) fastForward(e *emu.Emulator, n uint64) {
	if e.Halted {
		return
	}
	code, mem, regs := e.Prog.Code, e.Mem, &e.Regs
	pc, retired := e.PC, e.Retired
	for ; n > 0; n-- {
		w.now++
		if line := pc / warmupLine; !w.haveLine || line != w.lastLine {
			w.Mem.AccessI(w.now, core.TagAddr(w.progIdx, pc))
			w.lastLine, w.haveLine = line, true
		}
		i, ok := e.Prog.PCToIndex(pc)
		if !ok || code[i].IsHalt() {
			e.Halted = true
			break
		}
		in := &code[i]

		s1, s2 := regs[in.Rs1], regs[in.Rs2]
		next := pc + isa.InstBytes
		switch in.Class() {
		case isa.ClassLoad:
			addr := isa.EffAddr(*in, s1)
			if v := mem.Read(addr); in.Rd != isa.RegZero {
				regs[in.Rd] = v
			}
			w.Mem.AccessD(w.now, core.TagAddr(w.progIdx, addr))
		case isa.ClassStore:
			addr := isa.EffAddr(*in, s1)
			mem.Write(addr, s2)
			w.Mem.AccessD(w.now, core.TagAddr(w.progIdx, addr))
		case isa.ClassBranch:
			taken := isa.BranchTaken(*in, s1, s2)
			if in.WritesReg() {
				regs[in.Rd] = isa.Eval(*in, pc, s1, s2)
			}
			if taken {
				next = isa.BranchTarget(*in, s1)
			}
			predTaken := w.Pred.Train(0, pc, in, taken, next)
			if in.IsCondBranch() {
				w.Conf.Update(core.TagAddr(w.progIdx, pc), predTaken == taken)
			}
		default:
			if in.WritesReg() {
				regs[in.Rd] = isa.Eval(*in, pc, s1, s2)
			}
		}
		pc = next
		retired++
	}
	e.PC, e.Retired = pc, retired
}
