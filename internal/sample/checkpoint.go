// Package sample implements SMARTS-style sampled simulation: the
// golden emulator fast-forwards the program between short detailed
// measurement intervals, microarchitectural state is functionally
// warmed during the fast-forward, and whole-program IPC is estimated
// as a mean over the per-interval samples with a Student-t confidence
// interval.  See DESIGN.md "Sampled simulation" for the schedule, the
// warmup policy, and the known biases.
package sample

import (
	"fmt"

	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// Checkpoint is an in-process architectural snapshot of an emulator:
// everything needed to resume execution at an arbitrary point.  Memory
// is held as a delta against the program's initial image, sorted by
// address, so a checkpoint stays small and never aliases the live
// emulator's memory.
type Checkpoint struct {
	Program string // program name, validated on Restore
	PC      uint64
	Retired uint64
	Halted  bool
	Regs    [isa.NumRegs]uint64
	Mem     []program.Word // memory delta vs. the initial image, address-sorted
}

// Capture snapshots the emulator's architectural state.  base must be
// the program's initial memory image (program.NewMemory of the same
// program); the checkpoint's memory is the delta against it.
func Capture(e *emu.Emulator, base *program.Memory) *Checkpoint {
	cp := &Checkpoint{}
	cp.capture(e, base)
	return cp
}

// capture is Capture into cp, appending the memory delta to cp.Mem's
// storage so a reused checkpoint allocates nothing once its buffer has
// grown to the program's footprint.
func (cp *Checkpoint) capture(e *emu.Emulator, base *program.Memory) {
	*cp = Checkpoint{
		Program: e.Prog.Name,
		PC:      e.PC,
		Retired: e.Retired,
		Halted:  e.Halted,
		Regs:    e.Regs,
		Mem:     e.Mem.Delta(base, cp.Mem[:0]),
	}
}

// Restore builds an emulator resuming at the checkpoint.  The program
// must be the image the checkpoint was captured from (matched by name
// and by the PC landing inside its text).
func (cp *Checkpoint) Restore(p *program.Program) (*emu.Emulator, error) {
	mem := program.NewMemory(p)
	if err := cp.restore(p, mem); err != nil {
		return nil, err
	}
	return &emu.Emulator{
		Prog:    p,
		Mem:     mem,
		PC:      cp.PC,
		Regs:    cp.Regs,
		Halted:  cp.Halted,
		Retired: cp.Retired,
	}, nil
}

// restore checks cp against p as Restore does and applies its memory
// delta to mem, which must hold p's initial image (NewMemory, or a
// CopyFrom of it).
func (cp *Checkpoint) restore(p *program.Program, mem *program.Memory) error {
	if p.Name != cp.Program {
		return fmt.Errorf("sample: checkpoint of %q restored against %q", cp.Program, p.Name)
	}
	if _, ok := p.PCToIndex(cp.PC); !ok && !cp.Halted {
		return fmt.Errorf("sample: checkpoint pc 0x%x outside %s text", cp.PC, p.Name)
	}
	if cp.Regs[isa.RegZero] != 0 {
		return fmt.Errorf("sample: checkpoint has nonzero zero register")
	}
	mem.Apply(cp.Mem)
	return nil
}
