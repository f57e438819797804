package sample

import (
	"reflect"
	"runtime"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// stepObserve is the reference fast-forward: the golden emulator's
// StepInto, each record then observed by w.
func stepObserve(e *emu.Emulator, w *Warmup, n uint64) {
	var si emu.StepInfo
	for ; n > 0 && !e.Halted; n-- {
		e.StepInto(&si)
		w.Observe(&si)
	}
}

// checkFastForward runs p for total instructions twice, in chunks of
// chunk: once through fastForward and once through stepObserve.  After
// every chunk the architectural state must agree, and at the end so
// must the data memories and the warmed models.
func checkFastForward(t *testing.T, p *program.Program, mach config.Machine, chunk, total uint64) {
	t.Helper()
	got, want := emu.New(p), emu.New(p)
	gw, ww := NewWarmup(mach), NewWarmup(mach)
	for done := uint64(0); done < total; done += chunk {
		gw.fastForward(got, chunk)
		stepObserve(want, ww, chunk)
		if got.PC != want.PC || got.Regs != want.Regs || got.Retired != want.Retired || got.Halted != want.Halted {
			t.Fatalf("after %d insts in chunks of %d: fast-forward %v, reference %v", done+chunk, chunk, got, want)
		}
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		t.Fatalf("chunks of %d: data memory differs from the reference", chunk)
	}
	if !reflect.DeepEqual(gw, ww) {
		t.Fatalf("chunks of %d: warmed models differ from the reference", chunk)
	}
}

// fastForward is StepInto+Observe fused into one loop, so it must leave
// the emulator and the models exactly as that pair does: on every
// kernel, on generated programs, and on a program that halts in the
// middle of a chunk, where the halting step touches its I-line but
// retires nothing.
func TestFastForwardMatchesStepObserve(t *testing.T) {
	progs := map[string]*program.Program{"haltingloop": haltingLoop(t, 9_870)} // 39482 insts
	for _, name := range workload.Names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	for seed := uint64(1); seed <= 6; seed++ {
		p := workload.Generate(workload.DefaultGenParams(seed))
		progs[p.Name] = p
	}
	mach := config.Big216()
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, chunk := range []uint64{1, 7, 1000, 20_000} {
				checkFastForward(t, p, mach, chunk, 60_000)
			}
		})
	}
}

// FuzzFastForward drives the differential check with generated
// programs of fuzzed shape.
func FuzzFastForward(f *testing.F) {
	f.Add(uint64(1), uint8(24), uint8(6), uint8(2), uint8(25), uint8(20), uint16(256), uint16(1000))
	f.Add(uint64(9), uint8(2), uint8(1), uint8(1), uint8(90), uint8(0), uint16(8), uint16(7))
	f.Add(uint64(3), uint8(64), uint8(20), uint8(9), uint8(0), uint8(90), uint16(4096), uint16(1))
	mach := config.Small28()
	f.Fuzz(func(t *testing.T, seed uint64, blocks, blockLen, branchEvery, memFrac, fpFrac uint8, arrayWords, chunk uint16) {
		p := workload.Generate(workload.GenParams{
			Seed:        seed,
			Blocks:      int(blocks%64) + 2,
			BlockLen:    int(blockLen%24) + 1,
			BranchEvery: int(branchEvery%8) + 1,
			MemFrac:     int(memFrac % 101),
			FPFrac:      int(fpFrac % 101),
			ArrayWords:  int(arrayWords%4096) + 8,
		})
		checkFastForward(t, p, mach, uint64(chunk%2000)+1, 5_000)
	})
}

// TestFastForwardAllocBudget pins fastForward at zero allocations once
// the program's stores have reached every page they touch, in the
// style of emu.TestStepIntoAllocBudget.
func TestFastForwardAllocBudget(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	w := NewWarmup(config.Big216())
	w.fastForward(e, 100_000) // allocate the pages the stores reach
	if avg := testing.AllocsPerRun(5, func() { w.fastForward(e, 10_000) }); avg != 0 {
		t.Errorf("fastForward allocates %.1f times per 10,000 instructions, want 0", avg)
	}
}

// allocBytes returns the bytes f allocates itself.  The process-wide
// MemStats.TotalAlloc would also count whatever another goroutine
// allocates while f runs, so instead the memory profile records every
// allocation meanwhile, and only those whose stack passes through f
// count.
func allocBytes(f func()) uint64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	fn := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	before := profiledBytes(fn)
	f()
	return profiledBytes(fn) - before
}

// profiledBytes returns the bytes the memory profile records as
// allocated by stacks through the function named fn, once a collection
// has published every allocation made so far.
func profiledBytes(fn string) uint64 {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	n, ok := runtime.MemProfile(recs, true)
	for ; !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	var sum int64
	for _, r := range recs[:n] {
		for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
			var fr runtime.Frame
			if fr, more = frames.Next(); fr.Function == fn {
				sum += r.AllocBytes
				break
			}
		}
	}
	return uint64(sum)
}

// TestWarmupAllocBudget pins what fresh and copied models allocate.
// Cache tags are allocated a page at a time as sets are first filled,
// so new models hold no tags and a copy only the pages its source
// filled; with the tag arrays allocated whole, each took about 1.7 MB.
func TestWarmupAllocBudget(t *testing.T) {
	const newBudget, cloneBudget = 64 << 10, 256 << 10
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var w *Warmup
	got := allocBytes(func() { w = NewWarmup(config.Big216()) })
	t.Logf("NewWarmup allocates %d bytes", got)
	if got > newBudget {
		t.Errorf("NewWarmup allocates %d bytes, over the %d-byte budget", got, newBudget)
	}
	w.fastForward(emu.New(p), 1_000_000)
	got = allocBytes(func() { w.CloneInto(&Warmup{}) })
	t.Logf("CloneInto allocates %d bytes after 1M instructions", got)
	if got > cloneBudget {
		t.Errorf("CloneInto an empty Warmup after 1M instructions allocates %d bytes, over the %d-byte budget", got, cloneBudget)
	}
}

// TestWarmupResetMatchesNew: a master trained over one run and Reset
// is in the state Reset leaves a zero Warmup in for the machine it is
// Reset to.  The predictor, the estimator and the line tracking are
// deeply equal, and so is the hierarchy apart from the tag pages it
// keeps spare for later first fills, which a CloneInto a zero Warmup
// leaves behind.  Warming the same stream again takes every tag page
// from the spares, and warming another program afterwards, on a
// machine with other caches and context count or back on the first,
// leaves the models as a cold Warmup's.
func TestWarmupResetMatchesNew(t *testing.T) {
	mach := config.Big216()
	other := config.Small18()
	other.Name, other.Contexts, other.CacheScale = "small.1.8/4", 4, 4
	gcc, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	li, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	var w, cold Warmup
	w.Reset(mach)
	cold.Reset(mach)
	w.fastForward(emu.New(gcc), 200_000)
	w.Reset(mach)
	if !reflect.DeepEqual(w.CloneInto(&Warmup{}), &cold) {
		t.Fatal("a trained Warmup, Reset, differs from a zero Warmup Reset")
	}
	if !reflect.DeepEqual(w.Pred, cold.Pred) || !reflect.DeepEqual(w.Conf, cold.Conf) {
		t.Fatal("a trained Warmup's predictor or estimator, Reset, differs from a zero Warmup's")
	}
	e := emu.New(gcc)
	if got := allocBytes(func() { w.fastForward(e, 200_000) }); got != 0 {
		t.Errorf("warming the same stream after Reset allocates %d bytes, want 0", got)
	}
	for _, m := range []config.Machine{other, mach} {
		w.Reset(m)
		var fresh Warmup
		fresh.Reset(m)
		if !reflect.DeepEqual(w.CloneInto(&Warmup{}), fresh.CloneInto(&Warmup{})) {
			t.Fatalf("a trained Warmup, Reset to %s, differs from a zero Warmup Reset", m.Name)
		}
		w.fastForward(emu.New(li), 100_000)
		fresh.fastForward(emu.New(li), 100_000)
		if !reflect.DeepEqual(w.CloneInto(&Warmup{}), fresh.CloneInto(&Warmup{})) {
			t.Errorf("a Warmup Reset to %s warms another program unlike a cold one", m.Name)
		}
	}
}

// BenchmarkFastForward times the checkpoint pass's per-instruction work
// on gcc: the StepInto+Observe reference against the fused
// fastForward, each reported in ns per instruction.
func BenchmarkFastForward(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 20_000
	for _, bc := range []struct {
		name string
		run  func(*emu.Emulator, *Warmup)
	}{
		{"StepObserve", func(e *emu.Emulator, w *Warmup) { stepObserve(e, w, chunk) }},
		{"fastForward", func(e *emu.Emulator, w *Warmup) { w.fastForward(e, chunk) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := emu.New(p)
			w := NewWarmup(config.Big216())
			bc.run(e, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.run(e, w)
			}
			if e.Halted {
				b.Fatal("gcc halted")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/inst")
		})
	}
}
