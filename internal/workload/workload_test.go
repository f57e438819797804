package workload

import (
	"runtime"
	"testing"

	"recyclesim/internal/emu"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for name, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("program name %q under key %q", p.Name, name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestMixesEvenCoverage(t *testing.T) {
	for _, n := range []int{2, 4} {
		counts := CoverageCheck(n)
		want := 8 * n / len(Names)
		for _, b := range Names {
			if counts[b] != want {
				t.Errorf("n=%d: %s appears %d times, want %d", n, b, counts[b], want)
			}
		}
	}
}

func TestMixShape(t *testing.T) {
	for k := 0; k < 8; k++ {
		m := Mix(k, 4)
		if len(m) != 4 {
			t.Fatalf("mix size %d", len(m))
		}
		seen := map[string]bool{}
		for _, b := range m {
			if seen[b] {
				t.Errorf("mix %d repeats %s", k, b)
			}
			seen[b] = true
		}
	}
	// The single-program mixes are the benchmarks themselves, in order:
	// the figures average n=1 over Mixes(1) as the paper averages over
	// the eight benchmarks.
	for k, m := range Mixes(1) {
		if len(m) != 1 || m[0] != Names[k] {
			t.Errorf("Mixes(1)[%d] = %q, want [%s]", k, m, Names[k])
		}
	}
	if n := len(Mixes(1)); n != len(Names) {
		t.Errorf("Mixes(1) has %d mixes, want %d", n, len(Names))
	}
}

func TestMixProgramsResolve(t *testing.T) {
	progs, err := MixPrograms(Mix(0, 4))
	if err != nil || len(progs) != 4 {
		t.Fatalf("%v %d", err, len(progs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultGenParams(7))
	b := Generate(DefaultGenParams(7))
	if len(a.Code) != len(b.Code) {
		t.Fatal("nondeterministic generation")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	c := Generate(DefaultGenParams(8))
	if len(a.Code) == len(c.Code) {
		same := true
		for i := range a.Code {
			if a.Code[i] != c.Code[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical programs")
		}
	}
}

func TestGenerateRuns(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		p := Generate(DefaultGenParams(seed))
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e := emu.New(p)
		e.Run(20_000)
		if e.Halted {
			t.Errorf("seed %d halted unexpectedly", seed)
		}
	}
}

func TestGenerateTerminatingHalts(t *testing.T) {
	p := GenerateTerminating(3, 100)
	e := emu.New(p)
	e.Run(1_000_000)
	if !e.Halted {
		t.Fatal("terminating program did not halt")
	}
	if e.Retired < 100 {
		t.Errorf("retired only %d", e.Retired)
	}
}

func TestBenchmarkMispredictCharacter(t *testing.T) {
	// The relative branch-predictability ordering is what drives the
	// paper's per-benchmark results; pin it with a simple static
	// predictor proxy: last-direction-per-PC hit rate.
	rate := func(name string) float64 {
		p, _ := ByName(name)
		e := emu.New(p)
		last := map[uint64]bool{}
		miss, total := 0, 0
		for i := 0; i < 60_000; i++ {
			info := e.Step()
			if !info.Inst.IsCondBranch() {
				continue
			}
			total++
			if prev, ok := last[info.PC]; ok && prev != info.Taken {
				miss++
			}
			last[info.PC] = info.Taken
		}
		return float64(miss) / float64(total)
	}
	hostile := (rate("go") + rate("gcc")) / 2
	benign := (rate("vortex") + rate("su2cor") + rate("perl")) / 3
	if hostile < 2*benign {
		t.Errorf("branchy benchmarks (%.3f) should mispredict far more than predictable ones (%.3f)",
			hostile, benign)
	}
	if benign > 0.10 {
		t.Errorf("predictable benchmarks mispredict too much: %.3f", benign)
	}
}

// TestBuildAllocBudget: building all eight kernels stays within 512 KB
// of allocation.  Each data image is one dense slice grown once per
// array; a map entry per word cost about 1.4 MB.
func TestBuildAllocBudget(t *testing.T) {
	const budget = 512 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	progs, err := MixPrograms(Names)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	words := 0
	for _, p := range progs {
		words += len(p.Data)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("building %d kernels (%d data words) allocates %d bytes", len(progs), words, got)
	if got > budget {
		t.Errorf("building the kernels allocates %d bytes, over the %d-byte budget", got, budget)
	}
}
