package isa

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestOpClassCoverage(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		in := Inst{Op: Op(op)}
		if Op(op) != OpNop && Op(op) != OpHalt && in.Class() == ClassNop {
			t.Errorf("op %v has no functional-unit class", Op(op))
		}
		if in.Latency() <= 0 {
			t.Errorf("op %v has non-positive latency", Op(op))
		}
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		in                            Inst
		branch, cond, load, store, wr bool
	}{
		{Inst{Op: OpAdd, Rd: 1}, false, false, false, false, true},
		{Inst{Op: OpBeq}, true, true, false, false, false},
		{Inst{Op: OpJ}, true, false, false, false, false},
		{Inst{Op: OpJal, Rd: RegRA}, true, false, false, false, true},
		{Inst{Op: OpJr, Rs1: RegRA}, true, false, false, false, false},
		{Inst{Op: OpLd, Rd: 2}, false, false, true, false, true},
		{Inst{Op: OpSt}, false, false, false, true, false},
		{Inst{Op: OpFld, Rd: FPBase + 1}, false, false, true, false, true},
		{Inst{Op: OpFst}, false, false, false, true, false},
		{Inst{Op: OpHalt}, false, false, false, false, false},
		{Inst{Op: OpAdd, Rd: RegZero}, false, false, false, false, false},
	}
	for _, c := range cases {
		if c.in.IsBranch() != c.branch {
			t.Errorf("%v IsBranch=%v want %v", c.in, c.in.IsBranch(), c.branch)
		}
		if c.in.IsCondBranch() != c.cond {
			t.Errorf("%v IsCondBranch=%v want %v", c.in, c.in.IsCondBranch(), c.cond)
		}
		if c.in.IsLoad() != c.load {
			t.Errorf("%v IsLoad=%v want %v", c.in, c.in.IsLoad(), c.load)
		}
		if c.in.IsStore() != c.store {
			t.Errorf("%v IsStore=%v want %v", c.in, c.in.IsStore(), c.store)
		}
		if c.in.WritesReg() != c.wr {
			t.Errorf("%v WritesReg=%v want %v", c.in, c.in.WritesReg(), c.wr)
		}
	}
}

func TestReturnDetection(t *testing.T) {
	if !(&Inst{Op: OpJr, Rs1: RegRA}).IsReturn() {
		t.Error("jr ra should be a return")
	}
	if (&Inst{Op: OpJr, Rs1: 5}).IsReturn() {
		t.Error("jr r5 should not be a return")
	}
	if !(&Inst{Op: OpJal}).IsCall() {
		t.Error("jal should be a call")
	}
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		in     Inst
		s1, s2 uint64
		want   uint64
	}{
		{Inst{Op: OpAdd}, 3, 4, 7},
		{Inst{Op: OpSub}, 3, 4, ^uint64(0)},
		{Inst{Op: OpMul}, 6, 7, 42},
		{Inst{Op: OpDiv}, 42, 6, 7},
		{Inst{Op: OpDiv}, 42, 0, 0},
		{Inst{Op: OpRem}, 43, 6, 1},
		{Inst{Op: OpRem}, 43, 0, 0},
		{Inst{Op: OpAnd}, 0b1100, 0b1010, 0b1000},
		{Inst{Op: OpOr}, 0b1100, 0b1010, 0b1110},
		{Inst{Op: OpXor}, 0b1100, 0b1010, 0b0110},
		{Inst{Op: OpSll}, 1, 4, 16},
		{Inst{Op: OpSrl}, 16, 4, 1},
		{Inst{Op: OpSra}, uint64(0xFFFFFFFFFFFFFFF0), 4, 0xFFFFFFFFFFFFFFFF},
		{Inst{Op: OpSlt}, uint64(0xFFFFFFFFFFFFFFFF), 0, 1}, // -1 < 0 signed
		{Inst{Op: OpSltu}, uint64(0xFFFFFFFFFFFFFFFF), 0, 0},
		{Inst{Op: OpAddi, Imm: -1}, 5, 0, 4},
		{Inst{Op: OpSlti, Imm: 10}, 5, 0, 1},
		{Inst{Op: OpLi, Imm: -7}, 0, 0, uint64(0xFFFFFFFFFFFFFFF9)},
	}
	for _, c := range cases {
		if got := Eval(c.in, 0x1000, c.s1, c.s2); got != c.want {
			t.Errorf("Eval(%v, s1=%d, s2=%d) = %d, want %d", c.in, c.s1, c.s2, got, c.want)
		}
	}
}

func TestEvalJalLink(t *testing.T) {
	if got := Eval(Inst{Op: OpJal, Rd: RegRA}, 0x1234, 0, 0); got != 0x1234+InstBytes {
		t.Errorf("jal link = 0x%x", got)
	}
}

func TestEvalFP(t *testing.T) {
	f := math.Float64bits
	if got := Eval(Inst{Op: OpFadd}, 0, f(1.5), f(2.25)); got != f(3.75) {
		t.Errorf("fadd: %v", math.Float64frombits(got))
	}
	if got := Eval(Inst{Op: OpFmul}, 0, f(3), f(4)); got != f(12) {
		t.Errorf("fmul: %v", math.Float64frombits(got))
	}
	if got := Eval(Inst{Op: OpFdiv}, 0, f(1), f(0)); got != 0 {
		t.Errorf("fdiv by zero should be 0, got %v", got)
	}
	if got := Eval(Inst{Op: OpCvtIF}, 0, uint64(7), 0); got != f(7) {
		t.Errorf("cvtif: %v", math.Float64frombits(got))
	}
	if got := Eval(Inst{Op: OpCvtFI}, 0, f(7.9), 0); got != 7 {
		t.Errorf("cvtfi: %v", got)
	}
	if got := Eval(Inst{Op: OpCvtFI}, 0, f(math.Inf(1)), 0); got != 0 {
		t.Errorf("cvtfi(+inf) should be 0, got %v", got)
	}
	if got := Eval(Inst{Op: OpFlt}, 0, f(1), f(2)); got != 1 {
		t.Errorf("flt(1,2) = %v", got)
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op     Op
		s1, s2 uint64
		want   bool
	}{
		{OpBeq, 5, 5, true},
		{OpBeq, 5, 6, false},
		{OpBne, 5, 6, true},
		{OpBlt, uint64(0xFFFFFFFFFFFFFFFF), 0, true}, // -1 < 0
		{OpBge, 0, uint64(0xFFFFFFFFFFFFFFFF), true}, // 0 >= -1
		{OpBltu, 0, 1, true},
		{OpBgeu, 0, 1, false},
		{OpJ, 0, 0, true},
		{OpJr, 0, 0, true},
	}
	for _, c := range cases {
		if got := BranchTaken(Inst{Op: c.op}, c.s1, c.s2); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v, want %v", c.op, c.s1, c.s2, got, c.want)
		}
	}
}

func TestBranchTarget(t *testing.T) {
	if got := BranchTarget(Inst{Op: OpJr}, 0x4242); got != 0x4242 {
		t.Errorf("jr target %x", got)
	}
	if got := BranchTarget(Inst{Op: OpBeq, Target: 0x2000}, 0x4242); got != 0x2000 {
		t.Errorf("beq target %x", got)
	}
}

// Property: Eval never panics and is a pure function of its inputs.
func TestEvalPure(t *testing.T) {
	fn := func(op uint8, s1, s2, pc uint64, imm int64) bool {
		in := Inst{Op: Op(op % uint8(NumOps)), Imm: imm}
		a := Eval(in, pc, s1, s2)
		b := Eval(in, pc, s1, s2)
		return a == b
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: algebraic identities of the integer ALU.
func TestEvalIdentities(t *testing.T) {
	add := func(a, b uint64) bool {
		return Eval(Inst{Op: OpAdd}, 0, a, b) == Eval(Inst{Op: OpAdd}, 0, b, a)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Error("add not commutative:", err)
	}
	xorSelf := func(a uint64) bool { return Eval(Inst{Op: OpXor}, 0, a, a) == 0 }
	if err := quick.Check(xorSelf, nil); err != nil {
		t.Error("xor self not zero:", err)
	}
	subAdd := func(a, b uint64) bool {
		d := Eval(Inst{Op: OpSub}, 0, a, b)
		return Eval(Inst{Op: OpAdd}, 0, d, b) == a
	}
	if err := quick.Check(subAdd, nil); err != nil {
		t.Error("sub/add not inverse:", err)
	}
	sltAntisym := func(a, b uint64) bool {
		if a == b {
			return true
		}
		lt := Eval(Inst{Op: OpSlt}, 0, a, b)
		gt := Eval(Inst{Op: OpSlt}, 0, b, a)
		return lt != gt
	}
	if err := quick.Check(sltAntisym, nil); err != nil {
		t.Error("slt not antisymmetric:", err)
	}
}

func TestSrcRegs(t *testing.T) {
	srcs, n := (&Inst{Op: OpAdd, Rs1: 1, Rs2: 2}).SrcRegs()
	if n != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Errorf("add srcs = %v[%d]", srcs, n)
	}
	_, n = (&Inst{Op: OpAdd, Rs1: 3, Rs2: 3}).SrcRegs()
	if n != 1 {
		t.Errorf("duplicate source should dedup, n=%d", n)
	}
	_, n = (&Inst{Op: OpAdd, Rs1: RegZero, Rs2: RegZero}).SrcRegs()
	if n != 0 {
		t.Errorf("zero-register sources should be omitted, n=%d", n)
	}
	_, n = (&Inst{Op: OpLi, Rs1: 7}).SrcRegs()
	if n != 0 {
		t.Errorf("li has no sources, n=%d", n)
	}
	_, n = (&Inst{Op: OpLd, Rs1: 4}).SrcRegs()
	if n != 1 {
		t.Errorf("ld has one source, n=%d", n)
	}
}

// TestOperandPredicates pins, for every opcode, which register
// operands it reads (and that its form reads as many), whether it
// executes on a functional unit, and the
// source list SrcRegs derives from its operands: with distinct
// sources, with equal sources, and with RegZero in each source
// position.
func TestOperandPredicates(t *testing.T) {
	const (
		none = iota
		one
		two
	)
	shape := map[Op]int{
		OpNop: none, OpHalt: none,
		OpAdd: two, OpSub: two, OpMul: two, OpDiv: two, OpRem: two,
		OpAnd: two, OpOr: two, OpXor: two, OpSll: two, OpSrl: two, OpSra: two,
		OpSlt: two, OpSltu: two,
		OpAddi: one, OpAndi: one, OpOri: one, OpXori: one,
		OpSlli: one, OpSrli: one, OpSrai: one, OpSlti: one, OpLi: none,
		OpLd: one, OpSt: two, OpFld: one, OpFst: two,
		OpBeq: two, OpBne: two, OpBlt: two, OpBge: two, OpBltu: two, OpBgeu: two,
		OpJ: none, OpJal: none, OpJr: one,
		OpFadd: two, OpFsub: two, OpFmul: two, OpFdiv: two,
		OpFmov: one, OpFneg: one, OpCvtIF: one, OpCvtFI: one,
		OpFlt: two, OpFeq: two,
	}
	noExec := map[Op]bool{OpNop: true, OpHalt: true, OpJ: true}
	formSources := map[Form]int{
		FormNone: none, FormLi: none, FormJ: none, FormJal: none,
		FormRRI: one, FormRR: one, FormLoad: one, FormJr: one,
		FormRRR: two, FormStore: two, FormBranch: two,
	}
	if len(shape) != NumOps {
		t.Fatalf("table covers %d opcodes, want %d", len(shape), NumOps)
	}
	for op := Op(0); int(op) < NumOps; op++ {
		n, ok := shape[op]
		if !ok {
			t.Fatalf("op %v missing from the table", op)
		}
		if s, ok := formSources[op.Form()]; !ok || s != n {
			t.Errorf("%v: form %d, want one with %d register sources", op, op.Form(), n)
		}
		in := Inst{Op: op}
		if in.ReadsRs1() != (n >= one) || in.ReadsRs2() != (n == two) {
			t.Errorf("%v: ReadsRs1 %v, ReadsRs2 %v; want %d register sources", op, in.ReadsRs1(), in.ReadsRs2(), n)
		}
		if in.Executes() == noExec[op] {
			t.Errorf("%v: Executes %v", op, in.Executes())
		}
		for _, c := range []struct {
			rs1, rs2 Reg
			srcs     []Reg
		}{
			{5, 7, []Reg{5, 7}[:n]},
			{5, 5, []Reg{5}[:min(n, 1)]},
			{RegZero, 7, []Reg{7}[:n/two]},
			{5, RegZero, []Reg{5}[:min(n, 1)]},
			{RegZero, RegZero, nil},
		} {
			in.Rs1, in.Rs2 = c.rs1, c.rs2
			srcs, got := in.SrcRegs()
			if got != len(c.srcs) || !slices.Equal(srcs[:got], c.srcs) {
				t.Errorf("%v rs1=%d rs2=%d: SrcRegs = %v, want %v", op, c.rs1, c.rs2, srcs[:got], c.srcs)
			}
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		name := Op(op).String()
		got, ok := OpByName(name)
		if !ok || got != Op(op) {
			t.Errorf("OpByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("bogus mnemonic resolved")
	}
}

func TestRegName(t *testing.T) {
	if RegName(3) != "r3" {
		t.Errorf("RegName(3) = %s", RegName(3))
	}
	if RegName(FPBase+2) != "f2" {
		t.Errorf("RegName(f2) = %s", RegName(FPBase+2))
	}
}
