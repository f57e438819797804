package asm

import (
	"math"
	"slices"
	"strings"
	"testing"

	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

func TestBuilderLoop(t *testing.T) {
	b := NewBuilder("loop")
	b.Li(R(1), 5)
	b.Li(R(2), 0)
	b.Label("loop")
	b.Add(R(2), R(2), R(1))
	b.Addi(R(1), R(1), -1)
	b.Bne(R(1), R(0), "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(1000)
	if !e.Halted {
		t.Fatal("did not halt")
	}
	if got := e.Regs[2]; got != 5+4+3+2+1 {
		t.Errorf("sum = %d, want 15", got)
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	b.Li(R(1), 1)
	b.Beq(R(1), R(1), "skip") // always taken, target not yet defined
	b.Li(R(2), 99)
	b.Label("skip")
	b.Li(R(3), 7)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(100)
	if e.Regs[2] != 0 || e.Regs[3] != 7 {
		t.Errorf("r2=%d r3=%d", e.Regs[2], e.Regs[3])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.J("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

func TestBuilderDataSymbols(t *testing.T) {
	b := NewBuilder("data")
	addr := b.Word("answer", 42)
	arr := b.Array("vec", 4, 1, 2, 3)
	b.La(R(1), "answer")
	b.Ld(R(2), R(1), 0)
	b.La(R(3), "vec")
	b.Ld(R(4), R(3), 16)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	word := func(a uint64) uint64 { return p.Data[(a-program.DataBase)/8] }
	if word(addr) != 42 {
		t.Errorf("word init = %d", word(addr))
	}
	if word(arr+24) != 0 {
		t.Errorf("array zero-fill failed: %d", word(arr+24))
	}
	if want := []uint64{42, 1, 2, 3, 0}; !slices.Equal(p.Data, want) {
		t.Errorf("data image %v, want %v", p.Data, want)
	}
	e := emu.New(p)
	e.Run(100)
	if e.Regs[2] != 42 || e.Regs[4] != 3 {
		t.Errorf("r2=%d r4=%d", e.Regs[2], e.Regs[4])
	}
}

// TestBuilderArrayTooManyValues: more values than words is a builder
// error, as is a negative count; the values are not silently dropped.
func TestBuilderArrayTooManyValues(t *testing.T) {
	for _, n := range []int{2, -1} {
		b := NewBuilder("extra")
		b.Array("a", n, 7, 8, 9)
		b.Halt()
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `array "a": 3 values`) {
			t.Errorf("count %d: error %v, want one naming the array and its 3 values", n, err)
		}
	}
}

// TestBuilderDataStopsAtStack: the data image may fill the segment up
// to StackBase, from which the stacks grow down, and not one word more.
func TestBuilderDataStopsAtStack(t *testing.T) {
	fits := int((program.StackBase - program.DataBase) / 8)
	build := func(words int, tail bool) (*program.Program, error) {
		b := NewBuilder("big")
		b.Array("big", words)
		if tail {
			b.Word("tail", 1)
		}
		b.Halt()
		return b.Build()
	}
	p, err := build(fits, false)
	if err != nil {
		t.Fatalf("%d words, the last at %#x: %v", fits, program.StackBase-8, err)
	}
	if end := program.DataBase + 8*uint64(len(p.Data)); end != program.StackBase {
		t.Errorf("image ends at %#x, want %#x", end, program.StackBase)
	}
	if _, err := build(fits+1, false); err == nil || !strings.Contains(err.Error(), "stack") {
		t.Errorf("an array of %d words: error %v, want the image refused", fits+1, err)
	}
	if _, err := build(fits, true); err == nil || !strings.Contains(err.Error(), "stack") {
		t.Errorf("a word after %d words: error %v, want the image refused", fits, err)
	}
}

func TestBuilderUnknownDataSymbol(t *testing.T) {
	b := NewBuilder("nosym")
	b.La(R(1), "missing")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unknown data symbol")
	}
}

func TestCallRet(t *testing.T) {
	b := NewBuilder("call")
	b.Li(R(1), 10)
	b.Jal("double")
	b.Mov(R(3), R(2))
	b.Halt()
	b.Label("double")
	b.Add(R(2), R(1), R(1))
	b.Ret()
	p := b.MustBuild()
	e := emu.New(p)
	e.Run(100)
	if e.Regs[3] != 20 {
		t.Errorf("r3 = %d, want 20", e.Regs[3])
	}
}

func TestRegisterHelpers(t *testing.T) {
	if R(31) != isa.RegRA {
		t.Error("R(31) should be the link register")
	}
	if !F(0).IsFP() {
		t.Error("F(0) should be a floating-point register")
	}
	defer func() {
		if recover() == nil {
			t.Error("R(32) should panic")
		}
	}()
	R(32)
}

const textProgram = `
; word-count-ish kernel
.word  total 0
.array data 4 10 20 30 40

    la   r1, data
    li   r2, 0      ; index
    li   r3, 0      ; sum
loop:
    slli r4, r2, 3
    add  r5, r1, r4
    ld   r6, 0(r5)
    add  r3, r3, r6
    addi r2, r2, 1
    slti r7, r2, 4
    bne  r7, r0, loop
    la   r8, total
    st   r3, 0(r8)
    halt
`

func TestAssembleText(t *testing.T) {
	p, err := Assemble("wc", textProgram)
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(1000)
	if !e.Halted {
		t.Fatal("did not halt")
	}
	if e.Regs[3] != 100 {
		t.Errorf("sum = %d, want 100", e.Regs[3])
	}
	if addr, ok := p.Labels["total"]; !ok {
		t.Error("missing data symbol in labels")
	} else if e.Mem.Read(addr) != 100 {
		t.Errorf("stored total = %d", e.Mem.Read(addr))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"li r1",
		"ld r1, nope",
		"beq r1, r2",
		"add r1, r2, 7x",
		".word onlyname",
		".array a 0",
		".array big 1000000",
		"li r99, 1",
		"ret r5",
		"nop r1",
		"halt r9",
		"add r1, r2",
		"addi r1, r2",
		"fmov f1, f2, f3",
		"ld r1",
		"st r1, 0(r2), r3",
		"j",
		"jal r31, f",
		"jr",
	}
	for _, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	const want = "bad:1: ret wants 0 operands, got 1"
	if _, err := Assemble("bad", "ret r5"); err == nil || err.Error() != want {
		t.Errorf("ret r5: error %v, want %q", err, want)
	}
}

// TestAssembleFullWidthLiterals: a data word, an li immediate and a
// displacement take any 64-bit pattern, written signed or unsigned;
// one bit more is refused.
func TestAssembleFullWidthLiterals(t *testing.T) {
	p, err := Assemble("wide", ".word m 0xffffffffffffffff\n"+
		"li r1, 0x8000000000000000\nld r2, 18446744073709551615(r1)\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != math.MaxUint64 {
		t.Errorf(".word m 0xffffffffffffffff: data %d, want %d", p.Data[0], uint64(math.MaxUint64))
	}
	if p.Code[0].Imm != math.MinInt64 || p.Code[1].Imm != -1 {
		t.Errorf("immediates %d and %d, want %d and -1", p.Code[0].Imm, p.Code[1].Imm, int64(math.MinInt64))
	}
	for _, src := range []string{".word m 0x10000000000000000\n", "li r1, 0x10000000000000000\n", "li r1, -0x8000000000000001\n"} {
		if _, err := Assemble("wide", src); err == nil || !strings.Contains(err.Error(), "bad immediate") {
			t.Errorf("%q: error %v, want a bad immediate", src, err)
		}
	}
}

// TestAssembleArrayExtraValues: an .array line with more values than
// its count is refused with its line number, not assembled short.
func TestAssembleArrayExtraValues(t *testing.T) {
	_, err := Assemble("extra", "halt\n.array a 2 7 8 9\n")
	if err == nil || !strings.HasPrefix(err.Error(), "extra:2:") || !strings.Contains(err.Error(), "3 values for 2 words") {
		t.Errorf("error %v, want extra:2: ... 3 values for 2 words", err)
	}
	p, err := Assemble("exact", ".array a 3 7 8 9\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Data, []uint64{7, 8, 9}) {
		t.Errorf("exact count: data %v, want [7 8 9]", p.Data)
	}
}

func TestAssembleComments(t *testing.T) {
	src := strings.Join([]string{
		"; semicolon comment",
		"# hash comment",
		"// slash comment",
		"li r1, 3 ; trailing",
		"halt",
	}, "\n")
	p, err := Assemble("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 2 {
		t.Errorf("code length = %d, want 2", len(p.Code))
	}
}

func TestAssembleAllMnemonics(t *testing.T) {
	src := `
.word w 1
    li r1, 2
    li r2, 3
    add r3, r1, r2
    sub r3, r1, r2
    mul r3, r1, r2
    div r3, r1, r2
    rem r3, r1, r2
    and r3, r1, r2
    or r3, r1, r2
    xor r3, r1, r2
    sll r3, r1, r2
    srl r3, r1, r2
    sra r3, r1, r2
    slt r3, r1, r2
    sltu r3, r1, r2
    addi r3, r1, 4
    andi r3, r1, 4
    ori r3, r1, 4
    xori r3, r1, 4
    slli r3, r1, 4
    srli r3, r1, 4
    srai r3, r1, 4
    slti r3, r1, 4
    mov r4, r3
    la r5, w
    ld r6, 0(r5)
    st r6, 8(r5)
    fld f1, 0(r5)
    fst f1, 8(r5)
    fadd f3, f1, f2
    fsub f3, f1, f2
    fmul f3, f1, f2
    fdiv f3, f1, f2
    fmov f4, f3
    fneg f4, f3
    cvtif f5, r1
    cvtfi r7, f5
    flt r8, f1, f3
    feq r8, f1, f3
tgt:
    beq r1, r2, tgt
    bne r1, r2, tgt
    blt r1, r2, tgt
    bge r1, r2, tgt
    bltu r1, r2, tgt
    bgeu r1, r2, tgt
    jal sub1
    j end
sub1:
    jr r31
end:
    nop
    ret
    halt
`
	p, err := Assemble("all", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var seen [isa.NumOps]bool
	for _, in := range p.Code {
		seen[in.Op] = true
	}
	for op := range isa.NumOps {
		if !seen[op] {
			t.Errorf("no mnemonic in the source assembles to %v", isa.Op(op))
		}
	}
	// Each real opcode without a label operand assembles to the
	// instruction its line spells, every operand in its place.
	code := p.Code
	for _, line := range strings.Split(src, "\n") {
		line = strings.Join(strings.Fields(line), " ")
		if line == "" || strings.HasPrefix(line, ".") || strings.HasSuffix(line, ":") {
			continue
		}
		in := code[0]
		code = code[1:]
		mn, _, _ := strings.Cut(line, " ")
		op, ok := isa.OpByName(mn)
		if !ok || op.Form() == isa.FormBranch || op.Form() == isa.FormJ || op.Form() == isa.FormJal {
			continue // a pseudo-instruction or a label operand
		}
		if in.String() != line {
			t.Errorf("%q assembles to %q", line, in.String())
		}
	}
}

func TestProgramValidateRejectsBadTarget(t *testing.T) {
	p := &program.Program{
		Name:  "bad",
		Code:  []isa.Inst{{Op: isa.OpJ, Target: 0xDEAD0}},
		Entry: program.CodeBase,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}
