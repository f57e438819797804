// Package isa defines the simulated 64-bit RISC instruction set used by
// the recycling simulator: opcodes, register conventions, operand
// encodings, execution semantics, and functional-unit latencies.
//
// The ISA is deliberately small but complete enough to express the
// SPEC95-like synthetic workloads: integer ALU ops, multiply/divide,
// loads and stores, conditional branches, jumps and calls, and a
// floating-point subset.  Instructions occupy 4 bytes of address space
// so that a 64-byte cache line holds 16 instructions, matching the
// fetch-block geometry of the paper's machine.
package isa

// InstBytes is the architectural size of one instruction in bytes.
// PCs advance by InstBytes; cache lines are 64 bytes = 16 instructions.
const InstBytes = 4

// Register-file geometry.  Logical registers 0..31 are integer
// registers (register 0 is hardwired to zero); 32..63 are floating
// point.  A single 64-entry logical space keeps the rename map simple
// while the physical register file still maintains separate integer
// and floating-point pools, as in the paper.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// RegZero always reads as zero and ignores writes.
	RegZero = 0
	// RegRA is the conventional link (return address) register.
	RegRA = 31
	// RegSP is the conventional stack pointer.
	RegSP = 30
	// FPBase is the first floating-point logical register number.
	FPBase = NumIntRegs
)

// Reg identifies a logical register (0..NumRegs-1).
type Reg uint8

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// Op enumerates the operations of the ISA.
type Op uint8

// Opcodes.  Three-register ALU forms read Rs1 and Rs2 and write Rd.
// Immediate forms read Rs1 and Imm.  Branches compare Rs1 against Rs2
// and transfer to Target.  Loads/stores compute Rs1+Imm.
const (
	OpNop Op = iota
	OpHalt

	// Integer ALU, register forms.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt  // set if less than (signed)
	OpSltu // set if less than (unsigned)

	// Integer ALU, immediate forms.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpLi // rd = imm (64-bit immediate materialization)

	// Memory.
	OpLd  // rd = mem[rs1+imm]
	OpSt  // mem[rs1+imm] = rs2
	OpFld // frd = mem[rs1+imm]
	OpFst // mem[rs1+imm] = frs2

	// Control.
	OpBeq
	OpBne
	OpBlt // signed
	OpBge // signed
	OpBltu
	OpBgeu
	OpJ   // unconditional jump to Target
	OpJal // rd = pc+4; jump to Target
	OpJr  // jump to rs1 (indirect; returns when rs1 == RegRA)

	// Floating point.  FP registers are addressed with Reg >= FPBase.
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFmov
	OpFneg
	OpCvtIF // frd = float64(int64(rs1))
	OpCvtFI // rd = int64(float64(frs1))
	OpFlt   // rd(int) = frs1 < frs2
	OpFeq   // rd(int) = frs1 == frs2

	numOps
)

// NumOps is the count of defined opcodes (useful for table sizing).
const NumOps = int(numOps)

// Inst is a decoded instruction.  The simulator stores instructions in
// decoded form everywhere (fetch buffers, active lists, recycle paths),
// mirroring the paper's observation that the active list keeps "the
// decoded opcode and physical and logical register operands".
//
// Its predicates take pointer receivers: an Inst has too many fields
// for the compiler to keep in registers, so a value receiver copies the
// instruction through the stack at every call, inlined or not.  String
// keeps a value receiver so fmt prints Inst values.
type Inst struct {
	Op     Op
	Rd     Reg    // destination (ignored if !WritesReg)
	Rs1    Reg    // first source
	Rs2    Reg    // second source (also store data register)
	Imm    int64  // immediate / displacement
	Target uint64 // absolute branch/jump target PC
}

// Class groups opcodes by the functional unit that executes them.
type Class uint8

// Functional-unit classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassFPCvt
	NumClasses
)

// opClass spans every Op value, defined or not, so indexing it by an
// instruction's Op needs no bounds check.
var opClass = [1 << 8]Class{
	OpNop: ClassNop, OpHalt: ClassNop,
	OpAdd: ClassIntALU, OpSub: ClassIntALU, OpMul: ClassIntMul,
	OpDiv: ClassIntDiv, OpRem: ClassIntDiv,
	OpAnd: ClassIntALU, OpOr: ClassIntALU, OpXor: ClassIntALU,
	OpSll: ClassIntALU, OpSrl: ClassIntALU, OpSra: ClassIntALU,
	OpSlt: ClassIntALU, OpSltu: ClassIntALU,
	OpAddi: ClassIntALU, OpAndi: ClassIntALU, OpOri: ClassIntALU,
	OpXori: ClassIntALU, OpSlli: ClassIntALU, OpSrli: ClassIntALU,
	OpSrai: ClassIntALU, OpSlti: ClassIntALU, OpLi: ClassIntALU,
	OpLd: ClassLoad, OpSt: ClassStore, OpFld: ClassLoad, OpFst: ClassStore,
	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch,
	OpBge: ClassBranch, OpBltu: ClassBranch, OpBgeu: ClassBranch,
	OpJ: ClassBranch, OpJal: ClassBranch, OpJr: ClassBranch,
	OpFadd: ClassFPAdd, OpFsub: ClassFPAdd, OpFmul: ClassFPMul,
	OpFdiv: ClassFPDiv, OpFmov: ClassFPAdd, OpFneg: ClassFPAdd,
	OpCvtIF: ClassFPCvt, OpCvtFI: ClassFPCvt,
	OpFlt: ClassFPAdd, OpFeq: ClassFPAdd,
}

// Form is an opcode's operand form: which of an Inst's fields it uses
// and how the assembler spells them.  opForm is the one place an
// opcode's operands are stated; the operand predicates, Inst.String
// and the text assembler all read it.  The zero Form marks an
// undefined opcode.
type Form uint8

// Operand forms, each with its assembler spelling.
const (
	FormNone   Form = iota + 1 // op, no operands
	FormRRR                    // op rd, rs1, rs2
	FormRRI                    // op rd, rs1, imm
	FormRR                     // op rd, rs1
	FormLi                     // li rd, imm
	FormLoad                   // op rd, imm(rs1)
	FormStore                  // op rs2, imm(rs1)
	FormBranch                 // op rs1, rs2, target
	FormJ                      // j target
	FormJal                    // jal target (rd is RegRA)
	FormJr                     // jr rs1
)

var opForm = [1 << 8]Form{
	OpNop: FormNone, OpHalt: FormNone,
	OpAdd: FormRRR, OpSub: FormRRR, OpMul: FormRRR, OpDiv: FormRRR, OpRem: FormRRR,
	OpAnd: FormRRR, OpOr: FormRRR, OpXor: FormRRR, OpSll: FormRRR, OpSrl: FormRRR,
	OpSra: FormRRR, OpSlt: FormRRR, OpSltu: FormRRR, OpFadd: FormRRR, OpFsub: FormRRR,
	OpFmul: FormRRR, OpFdiv: FormRRR, OpFlt: FormRRR, OpFeq: FormRRR,
	OpAddi: FormRRI, OpAndi: FormRRI, OpOri: FormRRI, OpXori: FormRRI,
	OpSlli: FormRRI, OpSrli: FormRRI, OpSrai: FormRRI, OpSlti: FormRRI,
	OpFmov: FormRR, OpFneg: FormRR, OpCvtIF: FormRR, OpCvtFI: FormRR,
	OpLi: FormLi, OpLd: FormLoad, OpFld: FormLoad, OpSt: FormStore, OpFst: FormStore,
	OpBeq: FormBranch, OpBne: FormBranch, OpBlt: FormBranch,
	OpBge: FormBranch, OpBltu: FormBranch, OpBgeu: FormBranch,
	OpJ: FormJ, OpJal: FormJal, OpJr: FormJr,
}

// Form returns the opcode's operand form.
func (o Op) Form() Form { return opForm[o] }

// noDest, noRs1 and readsRs2 restate opForm per opcode, so each
// operand predicate is one lookup: the opcodes of the forms with no
// destination, with no register source, and with a second register
// source.
var noDest, noRs1, readsRs2 = operandTables()

func operandTables() (noDest, noRs1, readsRs2 [1 << 8]bool) {
	for op, f := range opForm {
		bit := 1 << f
		noDest[op] = bit&(1<<FormNone|1<<FormStore|1<<FormBranch|1<<FormJ|1<<FormJr) != 0
		noRs1[op] = bit&(1<<FormNone|1<<FormLi|1<<FormJ|1<<FormJal) != 0
		readsRs2[op] = bit&(1<<FormRRR|1<<FormStore|1<<FormBranch) != 0
	}
	return noDest, noRs1, readsRs2
}

// Class returns the functional-unit class of the instruction.
func (i *Inst) Class() Class { return opClass[i.Op] }

// IsBranch reports whether the instruction is any control transfer.
func (i *Inst) IsBranch() bool { return i.Class() == ClassBranch }

// IsCondBranch reports whether the instruction is a conditional branch
// (the only kind TME forks on).
func (i *Inst) IsCondBranch() bool { return opForm[i.Op] == FormBranch }

// IsIndirect reports whether the control transfer target comes from a
// register rather than the instruction encoding.
func (i *Inst) IsIndirect() bool { return i.Op == OpJr }

// IsCall reports whether the instruction is a call (pushes the return
// address predictor stack).
func (i *Inst) IsCall() bool { return i.Op == OpJal }

// IsReturn reports whether the instruction is a conventional return.
func (i *Inst) IsReturn() bool { return i.Op == OpJr && i.Rs1 == RegRA }

// IsLoad reports whether the instruction reads memory.
func (i *Inst) IsLoad() bool { return i.Class() == ClassLoad }

// IsStore reports whether the instruction writes memory.
func (i *Inst) IsStore() bool { return i.Class() == ClassStore }

// IsMem reports whether the instruction accesses memory.
func (i *Inst) IsMem() bool { return i.IsLoad() || i.IsStore() }

// IsHalt reports whether the instruction terminates the program.
func (i *Inst) IsHalt() bool { return i.Op == OpHalt }

// Executes reports whether the instruction occupies a functional unit:
// nops, halts and direct jumps (resolved at fetch) complete at
// dispatch, with no issue or writeback.
func (i *Inst) Executes() bool { return i.Class() != ClassNop && i.Op != OpJ }

// WritesReg reports whether the instruction produces a register result.
// Writes to the hardwired zero register are discarded but still rename
// (they allocate and immediately deadlock nothing; the assembler never
// emits them, and the core treats Rd==RegZero as no destination).
func (i *Inst) WritesReg() bool { return !noDest[i.Op] && i.Rd != RegZero }

// SrcRegs returns the logical source registers read by the instruction
// (ReadsRs1, ReadsRs2), Rs1 first.  A register appears at most once
// even if read twice; RegZero is omitted (it is constant).  The
// two-element return keeps this allocation free; n is the number of
// valid entries.  Every opcode that reads Rs2 also reads Rs1.
func (i *Inst) SrcRegs() (srcs [2]Reg, n int) {
	if i.ReadsRs1() && i.Rs1 != RegZero {
		srcs[n] = i.Rs1
		n++
	}
	if i.ReadsRs2() && i.Rs2 != RegZero && i.Rs2 != i.Rs1 {
		srcs[n] = i.Rs2
		n++
	}
	return srcs, n
}

// ReadsRs1 reports whether Rs1 is a source operand: every instruction
// but those whose form reads no register (None, Li, J, Jal).
func (i *Inst) ReadsRs1() bool { return !noRs1[i.Op] }

// ReadsRs2 reports whether Rs2 is a live source operand.
func (i *Inst) ReadsRs2() bool { return readsRs2[i.Op] }
