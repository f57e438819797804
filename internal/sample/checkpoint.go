// Package sample implements SMARTS-style sampled simulation: the
// golden emulator fast-forwards the program between short detailed
// measurement intervals, microarchitectural state is functionally
// warmed during the fast-forward, and whole-program IPC is estimated
// as a mean over the per-interval samples with a Student-t confidence
// interval.  See DESIGN.md "Sampled simulation" for the schedule, the
// warmup policy, and the known biases.
package sample

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// Checkpoint is a serializable architectural snapshot of an emulator:
// everything needed to resume execution at an arbitrary point.  Memory
// is stored as a delta against the program's initial image, sorted by
// address, so checkpoints stay small and their encodings are
// deterministic.
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
	return &Checkpoint{
		Program: e.Prog.Name,
		PC:      e.PC,
		Retired: e.Retired,
		Halted:  e.Halted,
		Regs:    e.Regs,
		Mem:     e.Mem.Delta(base),
	}
}

// Restore builds an emulator resuming at the checkpoint.  The program
// must be the image the checkpoint was captured from (matched by name
// and by the PC landing inside its text).
func (cp *Checkpoint) Restore(p *program.Program) (*emu.Emulator, error) {
	if p.Name != cp.Program {
		return nil, fmt.Errorf("sample: checkpoint of %q restored against %q", cp.Program, p.Name)
	}
	if _, ok := p.PCToIndex(cp.PC); !ok && !cp.Halted {
		return nil, fmt.Errorf("sample: checkpoint pc 0x%x outside %s text", cp.PC, p.Name)
	}
	if cp.Regs[isa.RegZero] != 0 {
		return nil, fmt.Errorf("sample: checkpoint has nonzero zero register")
	}
	mem := program.NewMemory(p)
	mem.Apply(cp.Mem)
	return &emu.Emulator{
		Prog:    p,
		Mem:     mem,
		PC:      cp.PC,
		Regs:    cp.Regs,
		Halted:  cp.Halted,
		Retired: cp.Retired,
	}, nil
}

// ckptMagic versions the binary encoding.
const ckptMagic = "RSCKPT1\n"

// maxCkptWords bounds decoded delta sizes.  DecodeBinary preallocates
// at most ckptPrealloc words and grows the delta only as words arrive,
// so a corrupt or hostile length field makes a short stream fail at
// its end instead of driving a giant allocation.
const (
	maxCkptWords = 1 << 28
	ckptPrealloc = 4096
)

// EncodeBinary writes the checkpoint in the deterministic binary
// format: magic, name (length-prefixed), fixed-width little-endian
// scalars, register file, and the address-sorted memory delta.  Two
// equal checkpoints always produce identical bytes.
func (cp *Checkpoint) EncodeBinary(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	var u [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		buf.Write(u[:])
	}
	put(uint64(len(cp.Program)))
	buf.WriteString(cp.Program)
	put(cp.PC)
	put(cp.Retired)
	if cp.Halted {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	put(uint64(len(cp.Regs)))
	for _, r := range cp.Regs {
		put(r)
	}
	put(uint64(len(cp.Mem)))
	for _, mw := range cp.Mem {
		put(mw.Addr)
		put(mw.Val)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// DecodeBinary reads a checkpoint written by EncodeBinary.
func DecodeBinary(r io.Reader) (*Checkpoint, error) {
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("sample: checkpoint magic: %w", err)
	}
	if string(magic[:]) != ckptMagic {
		return nil, fmt.Errorf("sample: bad checkpoint magic %q", magic[:])
	}
	var u [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(r, u[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u[:]), nil
	}
	nameLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("sample: checkpoint name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("sample: checkpoint name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("sample: checkpoint name: %w", err)
	}
	cp := &Checkpoint{Program: string(name)}
	if cp.PC, err = get(); err != nil {
		return nil, fmt.Errorf("sample: checkpoint pc: %w", err)
	}
	if cp.Retired, err = get(); err != nil {
		return nil, fmt.Errorf("sample: checkpoint retired: %w", err)
	}
	var h [1]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("sample: checkpoint halted: %w", err)
	}
	if h[0] > 1 {
		return nil, fmt.Errorf("sample: checkpoint halted flag %d", h[0])
	}
	cp.Halted = h[0] == 1
	nRegs, err := get()
	if err != nil {
		return nil, fmt.Errorf("sample: checkpoint register count: %w", err)
	}
	if nRegs != uint64(len(cp.Regs)) {
		return nil, fmt.Errorf("sample: checkpoint has %d registers, want %d", nRegs, len(cp.Regs))
	}
	for i := range cp.Regs {
		if cp.Regs[i], err = get(); err != nil {
			return nil, fmt.Errorf("sample: checkpoint register %d: %w", i, err)
		}
	}
	nMem, err := get()
	if err != nil {
		return nil, fmt.Errorf("sample: checkpoint delta count: %w", err)
	}
	if nMem > maxCkptWords {
		return nil, fmt.Errorf("sample: checkpoint delta count %d too large", nMem)
	}
	if nMem > 0 {
		cp.Mem = make([]program.Word, 0, min(nMem, ckptPrealloc))
		for i := uint64(0); i < nMem; i++ {
			var w program.Word
			if w.Addr, err = get(); err != nil {
				return nil, fmt.Errorf("sample: checkpoint word %d: %w", i, err)
			}
			if w.Val, err = get(); err != nil {
				return nil, fmt.Errorf("sample: checkpoint word %d: %w", i, err)
			}
			cp.Mem = append(cp.Mem, w)
		}
	}
	return cp, nil
}

// EncodeJSON writes the checkpoint as JSON.  Field order follows the
// struct and the memory delta is address-sorted, so the encoding is
// deterministic.
func (cp *Checkpoint) EncodeJSON(w io.Writer) error {
	b, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeJSON reads a checkpoint written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := json.NewDecoder(r).Decode(cp); err != nil {
		return nil, fmt.Errorf("sample: checkpoint json: %w", err)
	}
	return cp, nil
}
