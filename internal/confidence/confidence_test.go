package confidence

import (
	"reflect"
	"testing"
)

func TestColdIsLowConfidence(t *testing.T) {
	e := new(Estimator).Reset(Default())
	if e.HighConfidence(0x1000) {
		t.Error("cold branches must be low confidence (fork candidates)")
	}
}

func TestWarmsToHighConfidence(t *testing.T) {
	cfg := Default()
	e := new(Estimator).Reset(cfg)
	for i := 0; i < cfg.Threshold; i++ {
		if e.HighConfidence(0x1000) {
			t.Fatalf("high confidence after only %d correct predictions", i)
		}
		e.Update(0x1000, true)
	}
	if !e.HighConfidence(0x1000) {
		t.Error("threshold correct predictions should reach high confidence")
	}
}

func TestMispredictResets(t *testing.T) {
	cfg := Default()
	e := new(Estimator).Reset(cfg)
	for i := 0; i < cfg.Max; i++ {
		e.Update(0x1000, true)
	}
	if e.Counter(0x1000) != cfg.Max {
		t.Errorf("counter saturation: %d", e.Counter(0x1000))
	}
	e.Update(0x1000, false)
	if e.Counter(0x1000) != 0 || e.HighConfidence(0x1000) {
		t.Error("a mispredict must reset the counter to low confidence")
	}
}

func TestPCIndexedNotHistoryIndexed(t *testing.T) {
	e := new(Estimator).Reset(Default())
	for i := 0; i < 10; i++ {
		e.Update(0x1000, true)
	}
	// All updates must have landed on the same counter.
	if !e.HighConfidence(0x1000) {
		t.Error("confidence must be independent of history")
	}
}

func TestSeparateBranches(t *testing.T) {
	e := new(Estimator).Reset(Default())
	for i := 0; i < 10; i++ {
		e.Update(0x1000, true)
	}
	// 0x1004 is the adjacent table entry (0x2000 would alias 0x1000 in
	// a 1024-entry table).
	if e.HighConfidence(0x1004) {
		t.Error("training one branch must not warm another")
	}
}

func TestTableAliasing(t *testing.T) {
	cfg := Config{Entries: 4, Max: 15, Threshold: 4}
	e := new(Estimator).Reset(cfg)
	// PCs 4 instructions apart land in different entries; PCs
	// Entries*4 bytes apart alias.
	for i := 0; i < 10; i++ {
		e.Update(0x1000, true)
	}
	alias := uint64(0x1000 + 4*4)
	if !e.HighConfidence(alias) {
		t.Error("aliasing PCs share a counter in a tiny table")
	}
}

// CopyFrom into a dirty destination — trained on another stream —
// equals CopyFrom into a zero Estimator, and the copy shares nothing
// with the source.
func TestCopyFromMatchesClone(t *testing.T) {
	train := func(e *Estimator, seed uint64, n int) {
		x := seed
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			e.Update(x>>20%8192, x>>60 != 0)
		}
	}
	// src and want see the same stream, so want is an independent
	// witness of src's state.
	src, want := new(Estimator).Reset(Default()), new(Estimator).Reset(Default())
	train(src, 1, 20_000)
	train(want, 1, 20_000)
	dst := new(Estimator).Reset(Default())
	train(dst, 2, 5_000)
	dst.CopyFrom(src)
	zero := &Estimator{}
	zero.CopyFrom(src)
	if !reflect.DeepEqual(dst, zero) {
		t.Fatal("CopyFrom into a trained estimator differs from one into a zero Estimator")
	}
	train(dst, 3, 5_000)
	if !reflect.DeepEqual(src, want) {
		t.Fatal("training the copy changed the source estimator")
	}
}

// Reset after training leaves exactly what Reset of a zero Estimator
// builds.
func TestResetMatchesNew(t *testing.T) {
	e := new(Estimator).Reset(Default())
	x := uint64(1)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		e.Update(x>>20%8192, x>>60 != 0)
	}
	if reflect.DeepEqual(e, new(Estimator).Reset(Default())) {
		t.Fatal("training left the estimator as Reset builds it")
	}
	e.Reset(Default())
	if !reflect.DeepEqual(e, new(Estimator).Reset(Default())) {
		t.Error("Reset after training differs from Reset of a zero Estimator")
	}
}

// The estimator masks its table index, so Reset refuses a table size
// that is not a power of two.
func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		entries int
		panic   bool
	}{
		{1, false}, {4, false}, {1024, false},
		{0, true}, {-4, true}, {3, true}, {1000, true},
	} {
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			new(Estimator).Reset(Config{Entries: tc.entries, Max: 15, Threshold: 4})
			return false
		}()
		if got != tc.panic {
			t.Errorf("Entries %d: Reset panicked = %v, want %v", tc.entries, got, tc.panic)
		}
	}
}
