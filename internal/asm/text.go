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
// Registers: r0..r31 (aliases zero, ra, sp), f0..f31.  Each opcode
// takes exactly the operands its isa.Form spells, and a line with more
// or fewer (`ret r5`, say) is an error.  Immediates,
// displacements and data values take the full 64-bit range: a signed
// literal, or an unsigned one up to 2^64-1 (0xffffffffffffffff is -1).
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

// parseImm parses a signed 64-bit literal, or an unsigned one up to
// 2^64-1 as its two's-complement bit pattern.
func parseImm(tok string) (int64, error) {
	if v, err := strconv.ParseInt(tok, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(tok, 0, 64); err == nil {
		return int64(v), nil
	}
	return 0, fmt.Errorf("bad immediate %q", tok)
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

// formOperands is the number of operands each form's spelling takes.
var formOperands = [...]int{
	isa.FormNone: 0, isa.FormJ: 1, isa.FormJal: 1, isa.FormJr: 1,
	isa.FormRR: 2, isa.FormLi: 2, isa.FormLoad: 2, isa.FormStore: 2,
	isa.FormRRR: 3, isa.FormRRI: 3, isa.FormBranch: 3,
}

// operands reads one instruction's operands.  It keeps the first error:
// after a wrong count or a bad operand, every read returns zero.
type operands struct {
	mn   string
	toks []string
	err  error
}

// want checks the operand count.
func (o *operands) want(n int) {
	if len(o.toks) != n {
		o.err = fmt.Errorf("%s wants %d operands, got %d", o.mn, n, len(o.toks))
	}
}

// tok returns operand i as written, for label and symbol operands.
func (o *operands) tok(i int) string {
	if o.err != nil {
		return ""
	}
	return o.toks[i]
}

func (o *operands) reg(i int) isa.Reg { return read(o, i, parseReg) }

func (o *operands) imm(i int) int64 { return read(o, i, parseImm) }

// read parses operand i unless an earlier read failed.
func read[T any](o *operands, i int, parse func(string) (T, error)) T {
	var v T
	if o.err == nil {
		v, o.err = parse(o.toks[i])
	}
	return v
}

func (o *operands) mem(i int) (int64, isa.Reg) {
	if o.err != nil {
		return 0, 0
	}
	imm, r, err := parseMem(o.toks[i])
	o.err = err
	return imm, r
}

// instruction assembles one line: one of the pseudo-instructions la,
// mov and ret, or a real opcode, whose form gives its operand count and
// where each operand goes.
func instruction(b *Builder, line string) error {
	mn, rest, _ := strings.Cut(line, " ")
	o := operands{mn: mn}
	for _, t := range strings.Split(rest, ",") {
		if t = strings.TrimSpace(t); t != "" {
			o.toks = append(o.toks, t)
		}
	}
	switch mn {
	case "la":
		o.want(2)
		if rd, sym := o.reg(0), o.tok(1); o.err == nil {
			b.La(rd, sym)
		}
		return o.err
	case "mov":
		o.want(2)
		if rd, rs := o.reg(0), o.reg(1); o.err == nil {
			b.Mov(rd, rs)
		}
		return o.err
	case "ret":
		o.want(0)
		if o.err == nil {
			b.Ret()
		}
		return o.err
	}
	op, ok := isa.OpByName(mn)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	o.want(formOperands[op.Form()])
	in, label := isa.Inst{Op: op}, ""
	switch op.Form() {
	case isa.FormRRR:
		in.Rd, in.Rs1, in.Rs2 = o.reg(0), o.reg(1), o.reg(2)
	case isa.FormRRI:
		in.Rd, in.Rs1, in.Imm = o.reg(0), o.reg(1), o.imm(2)
	case isa.FormRR:
		in.Rd, in.Rs1 = o.reg(0), o.reg(1)
	case isa.FormLi:
		in.Rd, in.Imm = o.reg(0), o.imm(1)
	case isa.FormLoad:
		in.Rd = o.reg(0)
		in.Imm, in.Rs1 = o.mem(1)
	case isa.FormStore:
		in.Rs2 = o.reg(0)
		in.Imm, in.Rs1 = o.mem(1)
	case isa.FormBranch:
		in.Rs1, in.Rs2, label = o.reg(0), o.reg(1), o.tok(2)
	case isa.FormJ:
		label = o.tok(0)
	case isa.FormJal:
		in.Rd, label = isa.RegRA, o.tok(0)
	case isa.FormJr:
		in.Rs1 = o.reg(0)
	}
	switch {
	case o.err != nil:
		return o.err
	case label != "":
		b.emitBranch(in, label)
	default:
		b.emit(in)
	}
	return nil
}
