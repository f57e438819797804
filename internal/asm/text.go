package asm

import (
	"fmt"
	"strconv"
	"strings"

	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// Assemble parses .ras assembler text and produces a program.  Syntax:
//
//	; comment (also # and //)
//	.word   name value          ; reserve one initialized data word
//	.array  name count [v ...]  ; reserve count words, at most count values
//	label:
//	    li   r1, 42
//	    la   r2, name
//	    add  r3, r1, r2
//	    ld   r4, 8(r2)
//	    st   r4, 16(r2)
//	    beq  r1, r0, label
//	    jal  func
//	    jr   ra
//	    halt
//
// Registers: r0..r31 (aliases zero, ra, sp), f0..f31.
func Assemble(name, src string) (*program.Program, error) {
	b := NewBuilder(name)
	lines := strings.Split(src, "\n")

	// Pass 0: data directives must be processed before any `la`
	// references, so collect them first.
	for ln, raw := range lines {
		line := stripComment(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], ".") {
			continue
		}
		if err := directive(b, fields); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
		}
	}
	for ln, raw := range lines {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" || strings.HasPrefix(line, ".") {
			continue
		}
		for strings.Contains(line, ":") {
			i := strings.Index(line, ":")
			b.Label(strings.TrimSpace(line[:i]))
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := instruction(b, line); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, ln+1, err)
		}
	}
	return b.Build()
}

func stripComment(s string) string {
	for _, marker := range []string{";", "#", "//"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func directive(b *Builder, fields []string) error {
	switch fields[0] {
	case ".word":
		if len(fields) != 3 {
			return fmt.Errorf(".word wants `name value`")
		}
		v, err := parseImm(fields[2])
		if err != nil {
			return err
		}
		b.Word(fields[1], uint64(v))
		return nil
	case ".array":
		if len(fields) < 3 {
			return fmt.Errorf(".array wants `name count [values...]`")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad array count %q", fields[2])
		}
		if len(fields)-3 > n {
			return fmt.Errorf(".array %s: %d values for %d words", fields[1], len(fields)-3, n)
		}
		vals := make([]uint64, 0, len(fields)-3)
		for _, f := range fields[3:] {
			v, err := parseImm(f)
			if err != nil {
				return err
			}
			vals = append(vals, uint64(v))
		}
		b.Array(fields[1], n, vals...)
		return nil
	}
	return fmt.Errorf("unknown directive %s", fields[0])
}

func parseReg(tok string) (isa.Reg, error) {
	switch tok {
	case "zero":
		return isa.RegZero, nil
	case "ra":
		return isa.RegRA, nil
	case "sp":
		return isa.RegSP, nil
	}
	if len(tok) >= 2 && (tok[0] == 'r' || tok[0] == 'f') {
		n, err := strconv.Atoi(tok[1:])
		if err == nil && n >= 0 && n < 32 {
			if tok[0] == 'f' {
				return F(n), nil
			}
			return R(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", tok)
}

func parseImm(tok string) (int64, error) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	return v, nil
}

// parseMem parses "imm(reg)" operands.
func parseMem(tok string) (int64, isa.Reg, error) {
	open := strings.Index(tok, "(")
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", tok)
	}
	imm := int64(0)
	if open > 0 {
		v, err := parseImm(tok[:open])
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	reg, err := parseReg(tok[open+1 : len(tok)-1])
	return imm, reg, err
}

func instruction(b *Builder, line string) error {
	mn, rest, _ := strings.Cut(line, " ")
	mn = strings.TrimSpace(mn)
	var ops []string
	for _, o := range strings.Split(rest, ",") {
		if o = strings.TrimSpace(o); o != "" {
			ops = append(ops, o)
		}
	}
	want := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}

	switch mn {
	case "nop":
		b.Nop()
		return nil
	case "halt":
		b.Halt()
		return nil
	case "ret":
		b.Ret()
		return nil
	case "li":
		if err := want(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return err
		}
		b.Li(rd, imm)
		return nil
	case "la":
		if err := want(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.La(rd, ops[1])
		return nil
	case "mov":
		if err := want(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.Mov(rd, rs)
		return nil
	case "ld", "fld":
		if err := want(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		imm, base, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		if mn == "ld" {
			b.Ld(rd, base, imm)
		} else {
			b.Fld(rd, base, imm)
		}
		return nil
	case "st", "fst":
		if err := want(2); err != nil {
			return err
		}
		rs, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		imm, base, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		if mn == "st" {
			b.St(rs, base, imm)
		} else {
			b.Fst(rs, base, imm)
		}
		return nil
	case "j":
		if err := want(1); err != nil {
			return err
		}
		b.J(ops[0])
		return nil
	case "jal":
		if err := want(1); err != nil {
			return err
		}
		b.Jal(ops[0])
		return nil
	case "jr":
		if err := want(1); err != nil {
			return err
		}
		rs, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.Jr(rs)
		return nil
	}

	op, ok := isa.OpByName(mn)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	switch op.String() {
	// Three-register ALU / FP forms share one shape.
	case "add", "sub", "mul", "div", "rem", "and", "or", "xor",
		"sll", "srl", "sra", "slt", "sltu",
		"fadd", "fsub", "fmul", "fdiv", "flt", "feq":
		if err := want(3); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r1, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		r2, err := parseReg(ops[2])
		if err != nil {
			return err
		}
		b.rrr(op, rd, r1, r2)
		return nil
	case "beq", "bne", "blt", "bge", "bltu", "bgeu":
		if err := want(3); err != nil {
			return err
		}
		r1, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r2, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.branch(op, r1, r2, ops[2])
		return nil
	case "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti":
		if err := want(3); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r1, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[2])
		if err != nil {
			return err
		}
		b.rri(op, rd, r1, imm)
		return nil
	case "fmov", "fneg", "cvtif", "cvtfi":
		if err := want(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r1, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.emit(isa.Inst{Op: op, Rd: rd, Rs1: r1})
		return nil
	}
	return fmt.Errorf("unsupported mnemonic %q", mn)
}
