// Package emu implements the golden in-order functional emulator.  It
// defines architecturally-correct execution of a single program and is
// the oracle against which the out-of-order core is co-simulated: the
// core's committed instruction stream must match the emulator's exactly
// for every configuration (SMT, TME, recycling, reuse, respawning).
package emu

import (
	"fmt"

	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// Emulator executes one program's architectural state in order.
type Emulator struct {
	Prog *program.Program
	Mem  *program.Memory

	PC     uint64
	Regs   [isa.NumRegs]uint64
	Halted bool

	// Retired counts instructions executed so far.
	Retired uint64
}

// New returns an emulator at the program's entry with a fresh memory
// image and the stack pointer initialized.
func New(p *program.Program) *Emulator {
	e := &Emulator{}
	e.Reset(p)
	return e
}

// Reset puts e into exactly the state New(p) builds, reloading its
// memory in place (program.Memory.Load) when it has one.
func (e *Emulator) Reset(p *program.Program) {
	mem := e.Mem
	if mem == nil {
		mem = &program.Memory{}
	}
	mem.Load(p)
	*e = Emulator{Prog: p, Mem: mem, PC: p.Entry}
	e.Regs[isa.RegSP] = program.StackBase
}

// StepInfo describes one architecturally executed instruction; the
// co-simulation compares these records against the core's commits.
type StepInfo struct {
	PC     uint64
	Inst   isa.Inst
	Result uint64 // register result, if Inst.WritesReg()
	Addr   uint64 // effective address, if Inst.IsMem()
	Taken  bool   // direction, if Inst.IsBranch()
	Next   uint64 // next PC
}

// Step executes one instruction and returns what happened.  Stepping a
// halted emulator is a no-op that reports the halt again.
func (e *Emulator) Step() StepInfo {
	var info StepInfo
	e.StepInto(&info)
	return info
}

// StepInto is Step writing into a caller-owned record, so tracing
// (TraceInto) executes millions of instructions without allocating.
// Every StepInfo field is overwritten.  Sampled fast-forward does not
// call it: internal/sample executes and warms in one loop over the same
// isa helpers, and its differential test holds that loop to StepInto.
//
// The doc directive below roots the hotalloc analyzer here: StepInto
// and everything it transitively calls must stay allocation-free.  The
// one exception is the first store to a 4 KB page, which allocates the
// page; a program's pages are few and allocated once.
//
//recycle:hotpath
func (e *Emulator) StepInto(info *StepInfo) {
	// The record is written field by field: building it as a composite
	// literal and copying it over reloads the just-stored bytes with
	// wider loads than the stores that wrote them, which stalls.
	in := e.Prog.FetchInst(e.PC)
	info.PC = e.PC
	info.Result, info.Addr, info.Taken = 0, 0, false
	if e.Halted || in.IsHalt() {
		e.Halted = true
		info.Inst = isa.Inst{Op: isa.OpHalt}
		info.Next = e.PC
		return
	}
	info.Inst = *in

	// The zero register is never written (WritesReg and the load path
	// both exclude it), so Regs[RegZero] reads as the architectural 0.
	s1, s2 := e.Regs[in.Rs1], e.Regs[in.Rs2]
	next := e.PC + isa.InstBytes

	switch {
	case in.IsLoad():
		info.Addr = isa.EffAddr(*in, s1)
		info.Result = e.Mem.Read(info.Addr)
		if in.Rd != isa.RegZero {
			e.Regs[in.Rd] = info.Result
		}
	case in.IsStore():
		info.Addr = isa.EffAddr(*in, s1)
		e.Mem.Write(info.Addr, s2)
	case in.IsBranch():
		info.Taken = isa.BranchTaken(*in, s1, s2)
		if in.WritesReg() {
			info.Result = isa.Eval(*in, e.PC, s1, s2)
			e.Regs[in.Rd] = info.Result
		}
		if info.Taken {
			next = isa.BranchTarget(*in, s1)
		}
	default:
		if in.WritesReg() {
			info.Result = isa.Eval(*in, e.PC, s1, s2)
			e.Regs[in.Rd] = info.Result
		}
	}

	e.PC = next
	info.Next = next
	e.Retired++
}

// Run executes up to max instructions or until halt, returning the
// number retired.
func (e *Emulator) Run(max uint64) uint64 {
	var n uint64
	for n < max && !e.Halted {
		e.Step()
		n++
	}
	return n
}

// TraceInto executes up to max instructions, appending a StepInfo
// record for each into buf (reset to length zero first), so repeated
// tracing reuses one allocation; a nil buf grows as needed.
func (e *Emulator) TraceInto(buf []StepInfo, max uint64) []StepInfo {
	buf = buf[:0]
	for uint64(len(buf)) < max && !e.Halted {
		buf = append(buf, StepInfo{})
		e.StepInto(&buf[len(buf)-1])
	}
	return buf
}

// String summarizes the emulator state for debugging.
func (e *Emulator) String() string {
	return fmt.Sprintf("emu{%s pc=0x%x retired=%d halted=%v}",
		e.Prog.Name, e.PC, e.Retired, e.Halted)
}
