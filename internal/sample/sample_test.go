package sample

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"recyclesim/internal/asm"
	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// loadedCore is Load on an idle core from every program's entry: the
// core a detailed run starts on.
func loadedCore(mach config.Machine, feat config.Features, progs []*program.Program) (*core.Core, error) {
	c := &core.Core{}
	if err := c.Load(mach, feat, progs, nil, core.Models{}); err != nil {
		return nil, err
	}
	return c, nil
}

// fullIPC runs the program fully detailed and returns committed/cycles.
func fullIPC(t *testing.T, mach config.Machine, feat config.Features, p *program.Program, maxInsts uint64) float64 {
	t.Helper()
	c, err := loadedCore(mach, feat, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(maxInsts, 40*maxInsts+10_000); err != nil {
		t.Fatal(err)
	}
	return float64(c.Stats.Committed) / float64(c.Stats.Cycles)
}

// The headline acceptance criterion: sampled IPC lands within 3%
// relative error of the full detailed run.  The schedule (P=2000,
// L=500, W=500 over 400k insts = 200 intervals) trades speed for
// coverage because 400k-inst runs still carry strong phase structure;
// production budgets use longer periods (see DESIGN.md).
//
// Under the race detector each cell is ~15x slower, so the matrix is
// trimmed to one representative cell per preset; the full 8x5 matrix
// runs in normal builds.  The cells share no state and run in
// parallel.
func TestSampledAccuracy(t *testing.T) {
	const (
		maxInsts = 400_000
		bound    = 3.0 // percent
	)
	cfg := Config{Period: 2_000, IntervalLen: 500, WarmupLen: 500}
	mach := config.Big216()

	benches := workload.Names
	presets := []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"}
	var cells [][2]string
	if raceEnabled || testing.Short() {
		cells = [][2]string{
			{"go", "SMT"}, {"perl", "TME"}, {"gcc", "REC"},
			{"tomcatv", "REC/RS"}, {"vortex", "REC/RS/RU"},
		}
	} else {
		for _, b := range benches {
			for _, pr := range presets {
				cells = append(cells, [2]string{b, pr})
			}
		}
	}

	for _, cell := range cells {
		bench, preset := cell[0], cell[1]
		t.Run(bench+"/"+preset, func(t *testing.T) {
			t.Parallel()
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			feat, ok := config.PresetByName(preset)
			if !ok {
				t.Fatalf("unknown preset %q", preset)
			}
			full := fullIPC(t, mach, feat, p, maxInsts)
			r, err := Run(mach, feat, p, maxInsts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			relErr := 100 * math.Abs(r.IPC-full) / full
			if relErr > bound {
				t.Errorf("sampled IPC %.4f vs full %.4f: %.2f%% relative error exceeds %.1f%%",
					r.IPC, full, relErr, bound)
			}
			if r.Measured.Committed != r.MeasuredInsts {
				t.Errorf("attribution mismatch: Measured.Committed %d != MeasuredInsts %d",
					r.Measured.Committed, r.MeasuredInsts)
			}
		})
	}
}

// The determinism witness: identical inputs produce byte-identical
// reports and deeply equal results, for every worker count and across
// repeated runs.
func TestSampledDeterminism(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	feat, _ := config.PresetByName("REC/RS/RU")
	const maxInsts = 100_000

	runProg := func(p *program.Program, budget uint64, workers int) (*Result, string) {
		cfg := Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500, Workers: workers}
		r, err := Run(mach, feat, p, budget, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.String()
	}
	run := func(workers int) (*Result, string) { return runProg(p, maxInsts, workers) }

	ref, refText := run(1)
	if len(ref.Intervals) != int(maxInsts/5_000) {
		t.Fatalf("expected %d intervals, got %d", maxInsts/5_000, len(ref.Intervals))
	}
	for k, iv := range ref.Intervals {
		if iv.Index != k {
			t.Fatalf("interval %d has index %d", k, iv.Index)
		}
		if k > 0 && iv.StartInst <= ref.Intervals[k-1].StartInst {
			t.Fatalf("interval starts not increasing: %d then %d",
				ref.Intervals[k-1].StartInst, iv.StartInst)
		}
		if iv.CPI <= 0 {
			t.Fatalf("interval %d has CPI %v", k, iv.CPI)
		}
	}
	if ref.IPC <= 0 || ref.IPCLo <= 0 || ref.IPCHi < ref.IPC || ref.IPCLo > ref.IPC {
		t.Fatalf("inconsistent CI: IPC %.4f in [%.4f, %.4f]", ref.IPC, ref.IPCLo, ref.IPCHi)
	}

	for _, workers := range []int{2, 3, 4, 16, 0} {
		got, gotText := run(workers)
		if gotText != refText {
			t.Errorf("workers=%d report differs:\n%s\nvs workers=1:\n%s", workers, gotText, refText)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d result differs from workers=1", workers)
		}
	}
	if _, again := run(1); again != refText {
		t.Error("repeated identical run produced different report bytes")
	}

	// Run recycles a pool of seeds, seedsPerWorker per worker and at
	// most maxSeeds, while earlier intervals are still running.  Cover
	// an odd interval count, which is never a multiple of the (even)
	// pool, a program that halts in the measured tail of period 7,
	// after that period's seed was already filled, and a worker count
	// whose pool is capped at maxSeeds.
	for _, tc := range []struct {
		name   string
		prog   *program.Program
		budget uint64
		want   int
	}{
		{"gcc/19-intervals", p, 95_000, 19},
		{"halts-in-tail", haltingLoop(t, 9_870), maxInsts, 7}, // 39482 insts
	} {
		ref, refText := runProg(tc.prog, tc.budget, 1)
		if len(ref.Intervals) != tc.want {
			t.Fatalf("%s: expected %d intervals, got %d", tc.name, tc.want, len(ref.Intervals))
		}
		for _, workers := range []int{2, 3, 0, maxSeeds/seedsPerWorker + 8} {
			got, gotText := runProg(tc.prog, tc.budget, workers)
			if gotText != refText {
				t.Errorf("%s: workers=%d report differs:\n%s\nvs workers=1:\n%s", tc.name, workers, gotText, refText)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: workers=%d result differs from workers=1", tc.name, workers)
			}
		}
	}
}

// The allocation guard: a sampled interval allocates next to nothing.
// Each seed slot keeps its checkpoint's delta buffer, its data memory
// and its detailed core, and reloads them in place (core.Core.Load), so
// what is left is the interval's result (its Stats' per-program
// counts) and the slots' buffers growing to the program's footprint:
// about 340 bytes for gcc on Big216, give or take a few hundred with
// four workers, whose eight slots each grow their own.  The marginal
// cost per interval is measured between a 48- and a 96-interval run.
// Both reuse the state a first 96-interval run left (runState), so
// their fixed costs cancel; without that run the 48-interval run would
// pay for building the state and the difference would go negative.
// The smallest regression it guards against is a restored memory
// built afresh (gcc's data image spans nine 4 KB pages, ~37 KB); a
// fresh core is ~300 KB and a model copy ~150 KB.  The bound of two
// pages leaves room for drift in the growth.
//
// Each run takes the state the run before it left (idleRuns), under the
// race detector and at any GOMAXPROCS alike.  The four workers hand
// the slots' cores between goroutines, which the race detector checks,
// and the result must still equal the one-worker run's.
func TestSampledIntervalAllocs(t *testing.T) {
	const (
		bound       = 8_192 // bytes per interval
		short, long = 48, 96
	)
	if invariantEnabled {
		t.Skip("siminvariant build: the periodic checker allocates by design")
	}
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	feat, _ := config.PresetByName("REC/RS/RU")
	var ref *Result
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500, Workers: workers}
			allocs := func(intervals uint64) (*Result, uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r, err := Run(mach, feat, p, intervals*cfg.Period, cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if uint64(len(r.Intervals)) != intervals {
					t.Fatalf("%d intervals, want %d", len(r.Intervals), intervals)
				}
				return r, after.TotalAlloc - before.TotalAlloc
			}
			allocs(long)
			_, a := allocs(short)
			r, b := allocs(long)
			if ref == nil {
				ref = r
			} else if !reflect.DeepEqual(r, ref) {
				t.Error("result differs from the one-worker run's")
			}
			// Signed: with four workers the intervals land on the slots
			// in another order each run, so the slots' growth varies by
			// a few KB a run either way.
			perInterval := (int64(b) - int64(a)) / (long - short)
			t.Logf("%d bytes per interval (%d for %d intervals, %d for %d)", perInterval, a, short, b, long)
			if perInterval > bound {
				t.Errorf("a sampled interval allocates %d bytes, over the %d-byte bound", perInterval, bound)
			}
		})
	}
}

// TestPooledSampledRunAllocBudget: a repeat sampled run on the same
// machine reuses the first run's state — master models, initial image,
// emulator, and every seed slot's checkpoint buffer, model copy, data
// memory and core — so it allocates little beyond its Result: about
// 400 bytes per interval, 20 KB in all.  Building the state anew costs
// about 810 KB.  One worker pins the run, not the host: with more, the
// intervals land on other seed slots in each run, so the slots' pages
// grow differently from run to run and the second run's allocations
// vary with scheduling.
func TestPooledSampledRunAllocBudget(t *testing.T) {
	if invariantEnabled {
		t.Skip("siminvariant build: the periodic checker allocates by design")
	}
	const budget = 64 << 10
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	cfg := Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500, Workers: 1}
	run := func() {
		r, err := Run(mach, config.RECRSRU, p, 50*cfg.Period, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Intervals) != 50 {
			t.Fatalf("%d intervals, want 50", len(r.Intervals))
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second run allocates %d bytes", got)
	if got > budget {
		t.Errorf("second run allocates %d bytes, over the %d-byte budget", got, budget)
	}
}

func TestSampledConfigValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	feat, _ := config.PresetByName("SMT")

	if _, err := Run(mach, feat, p, 100_000, Config{Period: 1_000, IntervalLen: 800, WarmupLen: 800}); err == nil ||
		!strings.Contains(err.Error(), "exceed period") {
		t.Errorf("oversized interval+warmup accepted: %v", err)
	}
	if _, err := Run(mach, feat, p, 5_000, Config{Period: 20_000}); err == nil ||
		!strings.Contains(err.Error(), "smaller than one period") {
		t.Errorf("sub-period budget accepted: %v", err)
	}
	// Validate is the one rule Run applies, so front ends can reject a
	// schedule before any cell runs: zero fields are defaults, and the
	// budget must cover one (defaulted) period.
	for _, tc := range []struct {
		cfg     Config
		budget  uint64
		wantErr string
	}{
		{Config{}, 20_000, ""},
		{Config{}, 10_000, "budget 10000 smaller than one period 20000"},
		{Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500}, 5_000, ""},
		{Config{Period: 5_000}, 4_999, "smaller than one period"},
		{Config{Period: 1_000, IntervalLen: 800, WarmupLen: 800}, 0, "exceed period"},
		{Config{Confidence: 0.8}, 0, "confidence 0.8"},
	} {
		err := tc.cfg.Validate(tc.budget)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%+v.Validate(%d) = %v, want %q", tc.cfg, tc.budget, err, tc.wantErr)
		}
	}
	for _, level := range []float64{0.8, 0.5, 1, -0.95} {
		if _, err := Run(mach, feat, p, 100_000, Config{Confidence: level}); err == nil ||
			!strings.Contains(err.Error(), "confidence") {
			t.Errorf("confidence %v accepted: %v", level, err)
		}
	}
	bad := mach
	bad.Contexts = -1
	if _, err := Run(bad, feat, p, 100_000, Config{}); err == nil {
		t.Error("invalid machine accepted")
	}
}

// haltingLoop builds a program that retires 4*n+2 instructions and
// then halts, so sampled runs can hit the end of a program mid-pass.
func haltingLoop(t *testing.T, n int64) *program.Program {
	t.Helper()
	b := asm.NewBuilder("haltingloop")
	b.Li(asm.R(1), n)
	b.Li(asm.R(2), 0)
	b.Label("loop")
	b.Addi(asm.R(2), asm.R(2), 3)
	b.Xori(asm.R(3), asm.R(2), 0x55)
	b.Addi(asm.R(1), asm.R(1), -1)
	b.Bne(asm.R(1), asm.R(0), "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSampledHaltingProgram(t *testing.T) {
	mach := config.Big216()
	feat, _ := config.PresetByName("SMT")

	// Halts before one full period: refused.
	tiny := haltingLoop(t, 100)
	if _, err := Run(mach, feat, tiny, 100_000, Config{Period: 10_000}); err == nil ||
		!strings.Contains(err.Error(), "halts before one full period") {
		t.Errorf("sub-period program accepted: %v", err)
	}

	// Halts mid-run: the schedule truncates to fully covered periods
	// and still produces an estimate.
	longer := haltingLoop(t, 4_000) // 16k insts
	r, err := Run(mach, feat, longer, 100_000, Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Intervals); n < 2 || n > 4 {
		t.Errorf("expected 2-4 full intervals before halt, got %d", n)
	}
	if r.IPC <= 0 {
		t.Errorf("halting program produced IPC %v", r.IPC)
	}
}

func TestSampledPollCancellation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	feat, _ := config.PresetByName("SMT")
	var calls atomic.Int32 // the pass and the intervals poll concurrently
	cancel := func() error {
		if calls.Add(1) > 3 {
			return errCancelled
		}
		return nil
	}
	_, err = Run(mach, feat, p, 200_000, Config{Period: 5_000, Poll: cancel})
	if err == nil || !strings.Contains(err.Error(), "cancelled by test") {
		t.Errorf("poll cancellation not propagated: %v", err)
	}
}

var errCancelled = &cancelErr{}

type cancelErr struct{}

func (*cancelErr) Error() string { return "cancelled by test" }
