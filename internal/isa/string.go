package isa

import "fmt"

var opNames = [NumOps]string{
	OpNop: "nop", OpHalt: "halt",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpSlt: "slt", OpSltu: "sltu",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai", OpSlti: "slti", OpLi: "li",
	OpLd: "ld", OpSt: "st", OpFld: "fld", OpFst: "fst",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJ: "j", OpJal: "jal", OpJr: "jr",
	OpFadd: "fadd", OpFsub: "fsub", OpFmul: "fmul", OpFdiv: "fdiv",
	OpFmov: "fmov", OpFneg: "fneg", OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpFlt: "flt", OpFeq: "feq",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName maps assembler mnemonics back to opcodes; used by the text
// assembler.  Unknown names return (0, false).
func OpByName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name {
			return Op(op), true
		}
	}
	return 0, false
}

// RegName returns the conventional assembler name of a logical register
// (r0..r31 for integer, f0..f31 for floating point, with ra/sp aliases
// spelled numerically).
func RegName(r Reg) string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r-FPBase)
	}
	return fmt.Sprintf("r%d", r)
}

// String renders the instruction in assembler-like syntax, its
// operands placed by its form.
func (i Inst) String() string {
	switch opForm[i.Op] {
	case FormRRR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, RegName(i.Rd), RegName(i.Rs1), RegName(i.Rs2))
	case FormRRI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), RegName(i.Rs1), i.Imm)
	case FormRR:
		return fmt.Sprintf("%s %s, %s", i.Op, RegName(i.Rd), RegName(i.Rs1))
	case FormLi:
		return fmt.Sprintf("%s %s, %d", i.Op, RegName(i.Rd), i.Imm)
	case FormLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rd), i.Imm, RegName(i.Rs1))
	case FormStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rs2), i.Imm, RegName(i.Rs1))
	case FormBranch:
		return fmt.Sprintf("%s %s, %s, 0x%x", i.Op, RegName(i.Rs1), RegName(i.Rs2), i.Target)
	case FormJ:
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target)
	case FormJal:
		return fmt.Sprintf("%s %s, 0x%x", i.Op, RegName(i.Rd), i.Target)
	case FormJr:
		return fmt.Sprintf("%s %s", i.Op, RegName(i.Rs1))
	}
	return i.Op.String()
}
