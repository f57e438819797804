package emu

import (
	"testing"
	"testing/quick"

	"recyclesim/internal/asm"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

func TestStepBasics(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Li(asm.R(1), 6)
	b.Li(asm.R(2), 7)
	b.Mul(asm.R(3), asm.R(1), asm.R(2))
	b.Halt()
	e := New(b.MustBuild())

	info := e.Step()
	if info.PC != program.CodeBase || info.Result != 6 {
		t.Errorf("step1: %+v", info)
	}
	e.Step()
	info = e.Step()
	if info.Result != 42 || e.Regs[3] != 42 {
		t.Errorf("mul: %+v", info)
	}
	info = e.Step()
	if !e.Halted || !info.Inst.IsHalt() {
		t.Error("should halt")
	}
	// Stepping a halted emulator stays halted and does not advance.
	r := e.Retired
	e.Step()
	if e.Retired != r {
		t.Error("halted emulator retired an instruction")
	}
}

func TestMemoryOps(t *testing.T) {
	b := asm.NewBuilder("mem")
	b.Word("x", 11)
	b.La(asm.R(1), "x")
	b.Ld(asm.R(2), asm.R(1), 0)
	b.Addi(asm.R(2), asm.R(2), 1)
	b.St(asm.R(2), asm.R(1), 0)
	b.Ld(asm.R(3), asm.R(1), 0)
	b.Halt()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Regs[3] != 12 {
		t.Errorf("r3 = %d", e.Regs[3])
	}
}

func TestBranchingAndSPInit(t *testing.T) {
	b := asm.NewBuilder("br")
	b.Blt(asm.R(0), asm.R(30), "ok") // 0 < sp (StackBase)
	b.Li(asm.R(9), 111)              // skipped
	b.Label("ok")
	b.Halt()
	e := New(b.MustBuild())
	if e.Regs[isa.RegSP] != program.StackBase {
		t.Fatal("sp not initialized")
	}
	info := e.Step()
	if !info.Taken {
		t.Error("branch should be taken")
	}
	e.Step()
	if e.Regs[9] != 0 {
		t.Error("skipped instruction executed")
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := asm.NewBuilder("zero")
	b.Li(asm.R(0), 99)
	b.Add(asm.R(1), asm.R(0), asm.R(0))
	b.Halt()
	e := New(b.MustBuild())
	e.Run(10)
	if e.Regs[0] != 0 || e.Regs[1] != 0 {
		t.Errorf("r0=%d r1=%d", e.Regs[0], e.Regs[1])
	}
}

func TestTraceMatchesRun(t *testing.T) {
	p := workload.Generate(workload.DefaultGenParams(3))
	e1 := New(p)
	tr := e1.TraceInto(nil, 500)
	if len(tr) != 500 {
		t.Fatalf("trace length %d", len(tr))
	}
	e2 := New(p)
	for i, want := range tr {
		got := e2.Step()
		if got != want {
			t.Fatalf("step %d: %+v != %+v", i, got, want)
		}
	}
}

// Property: executing any benchmark for N steps and then M steps equals
// executing it for N+M steps (state composition / determinism).
func TestStepComposition(t *testing.T) {
	fn := func(seed uint64, nRaw, mRaw uint16) bool {
		n, m := uint64(nRaw%500), uint64(mRaw%500)
		p := workload.Generate(workload.DefaultGenParams(seed%8 + 1))
		a := New(p)
		a.Run(n)
		a.Run(m)
		b := New(p)
		b.Run(n + m)
		if a.PC != b.PC || a.Retired != b.Retired {
			return false
		}
		for i := range a.Regs {
			if a.Regs[i] != b.Regs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Every built-in benchmark must run essentially forever (they are
// sized to outlast any simulation budget).
func TestBenchmarksDontHalt(t *testing.T) {
	for _, name := range workload.Names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(p)
		e.Run(200_000)
		if e.Halted {
			t.Errorf("%s halted after %d instructions", name, e.Retired)
		}
	}
}

// StepInto must be Step: same records, same architectural state.
func TestStepIntoMatchesStep(t *testing.T) {
	p := workload.Generate(workload.DefaultGenParams(5))
	a, b := New(p), New(p)
	var got StepInfo
	for i := 0; i < 2000; i++ {
		want := a.Step()
		b.StepInto(&got)
		if got != want {
			t.Fatalf("step %d: %+v != %+v", i, got, want)
		}
	}
	if a.PC != b.PC || a.Retired != b.Retired || a.Regs != b.Regs {
		t.Fatal("diverged architectural state")
	}
}

// TraceInto must reuse the caller's buffer and match a trace into a
// new one.
func TestTraceIntoReusesBuffer(t *testing.T) {
	p := workload.Generate(workload.DefaultGenParams(4))
	want := New(p).TraceInto(nil, 300)
	e := New(p)
	buf := make([]StepInfo, 0, 300)
	got := e.TraceInto(buf, 300)
	if &got[0] != &buf[:1][0] {
		t.Error("TraceInto did not reuse the caller's buffer")
	}
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// A second trace into the same buffer starts from length zero again.
	got2 := e.TraceInto(got, 300)
	if len(got2) != 300 {
		t.Fatalf("second trace length %d", len(got2))
	}
}

// TestStepIntoAllocBudget pins the fast-forward loop at zero
// steady-state allocations: sampled simulation executes tens of
// millions of emulator instructions, so even one allocation per step
// would dominate its profile.  The only allowed events are first
// stores to a memory page, which the budget absorbs.
func TestStepIntoAllocBudget(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	// Warm up: allocate the pages the program's stores reach.
	e.Run(100_000)
	var info StepInfo
	const stepsPerRun = 10_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < stepsPerRun; i++ {
			e.StepInto(&info)
		}
	})
	perStep := avg / stepsPerRun
	t.Logf("%.1f allocs per %d steps (%.6f/step)", avg, stepsPerRun, perStep)
	if perStep > 0.001 {
		t.Errorf("fast-forward allocation rate %.6f/step exceeds budget 0.001/step", perStep)
	}
}

// Benchmarks must keep making branch decisions (no degenerate straight-
// line or stuck-loop behaviour) and touch memory.
func TestBenchmarkCharacter(t *testing.T) {
	for _, name := range workload.Names {
		p, _ := workload.ByName(name)
		e := New(p)
		branches, taken, loads, stores := 0, 0, 0, 0
		for i := 0; i < 50_000; i++ {
			info := e.Step()
			if info.Inst.IsCondBranch() {
				branches++
				if info.Taken {
					taken++
				}
			}
			if info.Inst.IsLoad() {
				loads++
			}
			if info.Inst.IsStore() {
				stores++
			}
		}
		if branches < 1000 {
			t.Errorf("%s: only %d conditional branches in 50k instructions", name, branches)
		}
		if taken == 0 || taken == branches {
			t.Errorf("%s: degenerate branch behaviour (%d/%d taken)", name, taken, branches)
		}
		if loads == 0 {
			t.Errorf("%s: no loads", name)
		}
		_ = stores // some kernels are load-only by design
	}
}
