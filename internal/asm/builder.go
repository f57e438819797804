// Package asm provides two ways to construct programs for the
// simulator: a programmatic Builder used by the synthetic workloads and
// the examples, and a small text assembler (see text.go) for .ras
// source files.
package asm

import (
	"fmt"

	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// Builder assembles a program instruction by instruction.  Labels may
// be referenced before they are defined; Build resolves all fixups.
//
//	b := asm.NewBuilder("demo")
//	b.Li(asm.R(1), 10)
//	b.Label("loop")
//	b.Addi(asm.R(1), asm.R(1), -1)
//	b.Bne(asm.R(1), asm.R(0), "loop")
//	b.Halt()
//	prog, err := b.Build()
type Builder struct {
	name   string
	code   []isa.Inst
	labels map[string]uint64
	fixups []fixup
	data   []uint64 // data[i] initializes program.DataBase + 8*i
	dsyms  map[string]uint64
	errs   []error
}

type fixup struct {
	index int
	label string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]uint64),
		dsyms:  make(map[string]uint64),
	}
}

// R returns the integer register with the given number (0..31).
func R(n int) isa.Reg {
	if n < 0 || n >= isa.NumIntRegs {
		panic(fmt.Sprintf("asm: integer register %d out of range", n))
	}
	return isa.Reg(n)
}

// F returns the floating-point register with the given number (0..31).
func F(n int) isa.Reg {
	if n < 0 || n >= isa.NumFPRegs {
		panic(fmt.Sprintf("asm: fp register %d out of range", n))
	}
	return isa.Reg(n + isa.FPBase)
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 {
	return program.CodeBase + uint64(len(b.code))*isa.InstBytes
}

// Label defines a code label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Word reserves an 8-byte data word with an initial value and returns
// its address.  If sym is non-empty the address is also recorded in the
// program's symbol table.
func (b *Builder) Word(sym string, val uint64) uint64 { return b.Array(sym, 1, val) }

// maxDataWords is the most data words a program may hold: the image
// must end at or below StackBase, from which the stacks grow down.
const maxDataWords = (program.StackBase - program.DataBase) / 8

// Array reserves n consecutive 8-byte words initialized from vals
// (zero-filled past len(vals)) and returns the base address.  More
// values than words, or an image that would run into the stacks, is
// an error Build reports.
func (b *Builder) Array(sym string, n int, vals ...uint64) uint64 {
	i := len(b.data)
	base := program.DataBase + 8*uint64(i)
	switch {
	case n < 0 || len(vals) > n:
		b.errs = append(b.errs, fmt.Errorf("array %q: %d values for %d words", sym, len(vals), n))
		return base
	case uint64(i+n) > maxDataWords:
		b.errs = append(b.errs, fmt.Errorf("data %q: image of %d words runs past the stack base %#x",
			sym, i+n, program.StackBase))
		return base
	}
	if i+n > cap(b.data) {
		// Grown by hand: slices.Grow also allocates a scratch slice of
		// n words under the race detector.
		grown := make([]uint64, i, 2*(i+n))
		copy(grown, b.data)
		b.data = grown
	}
	b.data = b.data[:i+n]
	copied := copy(b.data[i:], vals)
	clear(b.data[i+copied:])
	if sym != "" {
		b.dsyms[sym] = base
	}
	return base
}

func (b *Builder) emit(in isa.Inst) { b.code = append(b.code, in) }

func (b *Builder) emitBranch(in isa.Inst, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label})
	b.emit(in)
}

// --- instruction emitters -------------------------------------------------

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Inst{Op: isa.OpNop}) }

// Halt emits a program-terminating halt.
func (b *Builder) Halt() { b.emit(isa.Inst{Op: isa.OpHalt}) }

// Li materializes a 64-bit immediate into rd.
func (b *Builder) Li(rd isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpLi, Rd: rd, Imm: imm})
}

// La loads the address of a data symbol into rd.
func (b *Builder) La(rd isa.Reg, sym string) {
	addr, ok := b.dsyms[sym]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("unknown data symbol %q", sym))
	}
	b.emit(isa.Inst{Op: isa.OpLi, Rd: rd, Imm: int64(addr)})
}

func (b *Builder) rrr(op isa.Op, rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) rri(op isa.Op, rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpAdd, rd, rs1, rs2) }

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpSub, rd, rs1, rs2) }

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpMul, rd, rs1, rs2) }

// Div emits rd = rs1 / rs2 (signed; zero divisor yields zero).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpDiv, rd, rs1, rs2) }

// Rem emits rd = rs1 % rs2 (signed; zero divisor yields zero).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpRem, rd, rs1, rs2) }

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpAnd, rd, rs1, rs2) }

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpOr, rd, rs1, rs2) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpXor, rd, rs1, rs2) }

// Sll emits rd = rs1 << rs2.
func (b *Builder) Sll(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpSll, rd, rs1, rs2) }

// Srl emits rd = rs1 >> rs2 (logical).
func (b *Builder) Srl(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpSrl, rd, rs1, rs2) }

// Slt emits rd = (rs1 < rs2) signed.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) { b.rrr(isa.OpSlt, rd, rs1, rs2) }

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpAddi, rd, rs1, imm) }

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpAndi, rd, rs1, imm) }

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpOri, rd, rs1, imm) }

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpXori, rd, rs1, imm) }

// Slli emits rd = rs1 << imm.
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpSlli, rd, rs1, imm) }

// Srli emits rd = rs1 >> imm (logical).
func (b *Builder) Srli(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpSrli, rd, rs1, imm) }

// Srai emits rd = rs1 >> imm (arithmetic).
func (b *Builder) Srai(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpSrai, rd, rs1, imm) }

// Slti emits rd = (rs1 < imm) signed.
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) { b.rri(isa.OpSlti, rd, rs1, imm) }

// Mov copies rs1 into rd.
func (b *Builder) Mov(rd, rs1 isa.Reg) { b.rri(isa.OpAddi, rd, rs1, 0) }

// Ld emits rd = mem[rs1+imm].
func (b *Builder) Ld(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpLd, Rd: rd, Rs1: rs1, Imm: imm})
}

// St emits mem[rs1+imm] = rs2.
func (b *Builder) St(rs2, rs1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpSt, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// Fld emits frd = mem[rs1+imm].
func (b *Builder) Fld(frd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpFld, Rd: frd, Rs1: rs1, Imm: imm})
}

// Fst emits mem[rs1+imm] = frs2.
func (b *Builder) Fst(frs2, rs1 isa.Reg, imm int64) {
	b.emit(isa.Inst{Op: isa.OpFst, Rs1: rs1, Rs2: frs2, Imm: imm})
}

// Fadd emits frd = frs1 + frs2.
func (b *Builder) Fadd(frd, frs1, frs2 isa.Reg) { b.rrr(isa.OpFadd, frd, frs1, frs2) }

// Fsub emits frd = frs1 - frs2.
func (b *Builder) Fsub(frd, frs1, frs2 isa.Reg) { b.rrr(isa.OpFsub, frd, frs1, frs2) }

// Fmul emits frd = frs1 * frs2.
func (b *Builder) Fmul(frd, frs1, frs2 isa.Reg) { b.rrr(isa.OpFmul, frd, frs1, frs2) }

// Fdiv emits frd = frs1 / frs2.
func (b *Builder) Fdiv(frd, frs1, frs2 isa.Reg) { b.rrr(isa.OpFdiv, frd, frs1, frs2) }

// Fmov copies frs1 into frd.
func (b *Builder) Fmov(frd, frs1 isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpFmov, Rd: frd, Rs1: frs1})
}

// CvtIF emits frd = float64(rs1).
func (b *Builder) CvtIF(frd, rs1 isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpCvtIF, Rd: frd, Rs1: rs1})
}

// CvtFI emits rd = int64(frs1).
func (b *Builder) CvtFI(rd, frs1 isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpCvtFI, Rd: rd, Rs1: frs1})
}

// Flt emits rd = (frs1 < frs2).
func (b *Builder) Flt(rd, frs1, frs2 isa.Reg) { b.rrr(isa.OpFlt, rd, frs1, frs2) }

// branch emits the conditional branch op, comparing rs1 with rs2, to
// label.
func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, label string) {
	b.emitBranch(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, label)
}

// Beq emits a branch to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBeq, rs1, rs2, label) }

// Bne emits a branch to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBne, rs1, rs2, label) }

// Blt emits a branch to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBlt, rs1, rs2, label) }

// Bge emits a branch to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBge, rs1, rs2, label) }

// Bltu emits a branch to label when rs1 < rs2 (unsigned).
func (b *Builder) Bltu(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBltu, rs1, rs2, label) }

// Bgeu emits a branch to label when rs1 >= rs2 (unsigned).
func (b *Builder) Bgeu(rs1, rs2 isa.Reg, label string) { b.branch(isa.OpBgeu, rs1, rs2, label) }

// J emits an unconditional jump to label.
func (b *Builder) J(label string) {
	b.emitBranch(isa.Inst{Op: isa.OpJ}, label)
}

// Jal emits a call to label, linking through RegRA.
func (b *Builder) Jal(label string) {
	b.emitBranch(isa.Inst{Op: isa.OpJal, Rd: isa.RegRA}, label)
}

// Jr emits an indirect jump through rs1.
func (b *Builder) Jr(rs1 isa.Reg) {
	b.emit(isa.Inst{Op: isa.OpJr, Rs1: rs1})
}

// Ret emits a return (jr through the link register).
func (b *Builder) Ret() { b.Jr(isa.RegRA) }

// Build resolves all label fixups and returns the finished program.
func (b *Builder) Build() (*program.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, fx := range b.fixups {
		addr, ok := b.labels[fx.label]
		if !ok {
			return nil, fmt.Errorf("asm %s: undefined label %q", b.name, fx.label)
		}
		b.code[fx.index].Target = addr
	}
	labels := make(map[string]uint64, len(b.labels)+len(b.dsyms))
	for k, v := range b.labels {
		labels[k] = v
	}
	for k, v := range b.dsyms {
		labels[k] = v
	}
	p := &program.Program{
		Name:   b.name,
		Code:   b.code,
		Entry:  program.CodeBase,
		Data:   b.data,
		Labels: labels,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; for static workload kernels
// whose correctness is established by the test suite.
func (b *Builder) MustBuild() *program.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
