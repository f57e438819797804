package bpred

import (
	"reflect"
	"testing"

	"recyclesim/internal/isa"
)

func beq(target uint64) isa.Inst { return isa.Inst{Op: isa.OpBeq, Target: target} }

func lookup(p *Predictor, ctx int, pc uint64, in *isa.Inst) Pred {
	var pr Pred
	p.Lookup(ctx, pc, in, &pr)
	return pr
}

func TestPHTLearnsBias(t *testing.T) {
	p := new(Predictor).Reset(Default(1))
	pc := uint64(0x1000)
	in := beq(0x2000)
	// Train strongly taken.  The history register saturates to all
	// ones after HistBits iterations, after which the same PHT entry
	// trains repeatedly.
	for i := 0; i < 40; i++ {
		pr := lookup(p, 0, pc, &in)
		p.SpecUpdate(0, &in, pc, &pr)
		p.Commit(pc, &in, &pr, true, 0x2000)
		p.Restore(0, &in, &pr, true) // keep history consistent with outcome
	}
	pr := lookup(p, 0, pc, &in)
	if !pr.Taken {
		t.Error("predictor failed to learn a strongly-taken branch")
	}
	if pr.Target != 0x2000 {
		t.Errorf("direct target = 0x%x", pr.Target)
	}
}

func TestPHTAlternatingWithHistory(t *testing.T) {
	p := new(Predictor).Reset(Default(1))
	pc := uint64(0x1000)
	in := beq(0x2000)
	// Alternating taken/not-taken: gshare should learn it through the
	// history bits after warmup.
	correct := 0
	taken := false
	for i := 0; i < 200; i++ {
		pr := lookup(p, 0, pc, &in)
		if pr.Taken == taken && i > 100 {
			correct++
		}
		p.SpecUpdate(0, &in, pc, &pr)
		p.Restore(0, &in, &pr, taken)
		p.Commit(pc, &in, &pr, taken, 0x2000)
		taken = !taken
	}
	if correct < 90 {
		t.Errorf("gshare learned alternating pattern on only %d/99 late predictions", correct)
	}
}

func TestRASPushPop(t *testing.T) {
	p := new(Predictor).Reset(Default(2))
	call := isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Target: 0x3000}
	ret := isa.Inst{Op: isa.OpJr, Rs1: isa.RegRA}

	pr := lookup(p, 0, 0x1000, &call)
	p.SpecUpdate(0, &call, 0x1000, &pr)
	pr = lookup(p, 0, 0x1100, &call)
	p.SpecUpdate(0, &call, 0x1100, &pr)

	pr = lookup(p, 0, 0x3000, &ret)
	if pr.Target != 0x1100+isa.InstBytes {
		t.Errorf("return target = 0x%x, want 0x%x", pr.Target, 0x1100+isa.InstBytes)
	}
	p.SpecUpdate(0, &ret, 0x3000, &pr)
	pr = lookup(p, 0, 0x3000, &ret)
	if pr.Target != 0x1000+isa.InstBytes {
		t.Errorf("second return target = 0x%x", pr.Target)
	}
	// Context 1's stack is independent.
	pr = lookup(p, 1, 0x3000, &ret)
	if pr.Target != 0 {
		t.Errorf("context 1 should have an empty return stack, got 0x%x", pr.Target)
	}
}

func TestRASRecovery(t *testing.T) {
	p := new(Predictor).Reset(Default(1))
	call := isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Target: 0x3000}
	cond := beq(0x2000)

	pr0 := lookup(p, 0, 0x1000, &call)
	p.SpecUpdate(0, &call, 0x1000, &pr0)

	// A conditional branch checkpoints the stack depth.
	prB := lookup(p, 0, 0x3000, &cond)
	p.SpecUpdate(0, &cond, 0x3000, &prB)

	// Wrong path pushes another frame.
	prC := lookup(p, 0, 0x2000, &call)
	p.SpecUpdate(0, &call, 0x2000, &prC)

	// Mispredict recovery must restore the stack depth.
	p.Restore(0, &cond, &prB, !prB.Taken)
	ret := isa.Inst{Op: isa.OpJr, Rs1: isa.RegRA}
	pr := lookup(p, 0, 0x4000, &ret)
	if pr.Target != 0x1000+isa.InstBytes {
		t.Errorf("post-recovery return target = 0x%x", pr.Target)
	}
}

func TestHistoryRecovery(t *testing.T) {
	p := new(Predictor).Reset(Default(1))
	in := beq(0x2000)
	p.ForceHist(0, 0b101)
	pr := lookup(p, 0, 0x1000, &in)
	h0 := p.Hist(0)
	p.SpecUpdate(0, &in, 0x1000, &pr)
	want0 := h0 << 1
	if pr.Taken {
		want0 |= 1
	}
	if p.Hist(0) != want0&0x7FF {
		t.Errorf("speculative history = %b, want %b", p.Hist(0), want0&0x7FF)
	}
	p.Restore(0, &in, &pr, true)
	want := (pr.GHist << 1) | 1
	if p.Hist(0) != want&0x7FF {
		t.Errorf("restored history = %b, want %b", p.Hist(0), want&0x7FF)
	}
}

func TestBTBIndirect(t *testing.T) {
	p := new(Predictor).Reset(Default(1))
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5} // indirect, not a return
	pr := lookup(p, 0, 0x1000, &jr)
	if pr.Target != 0x1000+isa.InstBytes {
		t.Errorf("cold BTB should predict fallthrough, got 0x%x", pr.Target)
	}
	p.Commit(0x1000, &jr, &pr, true, 0x5000)
	pr = lookup(p, 0, 0x1000, &jr)
	if pr.Target != 0x5000 {
		t.Errorf("BTB target after training = 0x%x", pr.Target)
	}
}

func TestBTBReplacement(t *testing.T) {
	cfg := Default(1)
	cfg.BTBEntries = 8
	cfg.BTBAssoc = 4 // 2 sets
	p := new(Predictor).Reset(cfg)
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5}
	// Fill one set beyond capacity; oldest entries must be evicted, and
	// the newest must survive.
	var pcs []uint64
	for i := 0; i < 6; i++ {
		pc := uint64(0x1000 + i*2*int(isa.InstBytes)*2) // same-set stride (2 sets)
		pcs = append(pcs, pc)
		pr := lookup(p, 0, pc, &jr)
		p.Commit(pc, &jr, &pr, true, 0x7000+uint64(i))
	}
	last := pcs[len(pcs)-1]
	pr := lookup(p, 0, last, &jr)
	if pr.Target != 0x7000+uint64(len(pcs)-1) {
		t.Errorf("most recent BTB entry evicted: got 0x%x", pr.Target)
	}
}

func TestCopyContext(t *testing.T) {
	p := new(Predictor).Reset(Default(2))
	call := isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Target: 0x3000}
	pr := lookup(p, 0, 0x1000, &call)
	p.SpecUpdate(0, &call, 0x1000, &pr)
	p.ForceHist(0, 0b1011)

	p.CopyContext(1, 0)
	if p.Hist(1) != 0b1011 {
		t.Errorf("copied history = %b", p.Hist(1))
	}
	ret := isa.Inst{Op: isa.OpJr, Rs1: isa.RegRA}
	prr := lookup(p, 1, 0x3000, &ret)
	if prr.Target != 0x1000+isa.InstBytes {
		t.Errorf("copied return stack target = 0x%x", prr.Target)
	}
}

// drive trains a predictor on a pseudo-random stream of conditional
// branches, calls, returns and indirect jumps over every context,
// seeded by seed, so the tables, histories and return stacks all
// diverge from a fresh predictor.
func drive(p *Predictor, seed uint64, n int) {
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ctx := int(x>>8) % p.cfg.Contexts
		pc := (x >> 16 % 512) * isa.InstBytes
		var in isa.Inst
		switch x >> 40 % 4 {
		case 0:
			in = beq(pc + 64)
		case 1:
			in = isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Target: pc + 256}
		case 2:
			in = isa.Inst{Op: isa.OpJr, Rs1: isa.RegRA}
		default:
			in = isa.Inst{Op: isa.OpJr, Rs1: isa.Reg(5)}
		}
		taken := x>>50&1 == 1 || !in.IsCondBranch()
		pr := lookup(p, ctx, pc, &in)
		p.SpecUpdate(ctx, &in, pc, &pr)
		if pr.Taken != taken {
			p.Restore(ctx, &in, &pr, taken)
		}
		p.Commit(pc, &in, &pr, taken, x>>32%4096*isa.InstBytes)
	}
}

// CopyFrom into a dirty destination — trained on another stream, or
// built for fewer contexts — equals CopyFrom into a zero Predictor, and
// the copy shares nothing with the source.
func TestCopyFromMatchesClone(t *testing.T) {
	// src and want see the same stream, so want is an independent
	// witness of src's state.
	src, want := new(Predictor).Reset(Default(4)), new(Predictor).Reset(Default(4))
	drive(src, 1, 5_000)
	drive(want, 1, 5_000)
	for _, dst := range []*Predictor{new(Predictor).Reset(Default(4)), new(Predictor).Reset(Default(1))} {
		drive(dst, 2, 1_000)
		dst.CopyFrom(src)
		zero := &Predictor{}
		zero.CopyFrom(src)
		if !reflect.DeepEqual(dst, zero) {
			t.Fatalf("CopyFrom into a %d-context predictor differs from one into a zero Predictor", len(dst.hist))
		}
		drive(dst, 3, 1_000)
		if !reflect.DeepEqual(src, want) {
			t.Fatal("training the copy changed the source predictor")
		}
	}
}

// Reset after training leaves exactly what Reset of a zero Predictor
// builds for the configuration it is given: the counters, BTB, LRU clock, histories
// and return stacks all start over, sized for a larger or a smaller
// machine alike.
func TestResetMatchesNew(t *testing.T) {
	p := new(Predictor).Reset(Default(4))
	drive(p, 1, 5_000)
	if reflect.DeepEqual(p, new(Predictor).Reset(Default(4))) {
		t.Fatal("training left the predictor as Reset builds it")
	}
	small := Default(2)
	small.PHTEntries, small.BTBEntries, small.RASEntries = 512, 64, 4
	for _, cfg := range []Config{Default(4), Default(16), small, Default(4)} {
		p.Reset(cfg)
		if !reflect.DeepEqual(p, new(Predictor).Reset(cfg)) {
			t.Errorf("Reset(%+v) after training differs from Reset of a zero Predictor", cfg)
		}
		drive(p, 1, 5_000)
	}
}

// The predictor masks its PHT and BTB indexes, so Reset refuses a PHT size or a BTB
// set count that is not a power of two.
func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		panic bool
	}{
		{"paper sizes", func(*Config) {}, false},
		{"fully associative BTB", func(c *Config) { c.BTBAssoc = 256 }, false},
		{"3-way BTB of 4 sets", func(c *Config) { c.BTBEntries, c.BTBAssoc = 12, 3 }, false},
		{"PHT 1000", func(c *Config) { c.PHTEntries = 1000 }, true},
		{"PHT 0", func(c *Config) { c.PHTEntries = 0 }, true},
		{"BTB of 48 sets", func(c *Config) { c.BTBEntries = 192 }, true},
		{"BTB ways do not divide entries", func(c *Config) { c.BTBEntries = 258 }, true},
		{"no BTB ways", func(c *Config) { c.BTBAssoc = 0 }, true},
	} {
		cfg := Default(2)
		tc.edit(&cfg)
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			new(Predictor).Reset(cfg)
			return false
		}()
		if got != tc.panic {
			t.Errorf("%s: Reset panicked = %v, want %v", tc.name, got, tc.panic)
		}
	}
}

// Lookup is not free of side effects: a BTB hit on an indirect jump
// refreshes that entry's LRU stamp, so the way it hit is no longer the
// one btbInsert evicts next.
func TestLookupHitRefreshesBTBReplacement(t *testing.T) {
	cfg := Default(1)
	cfg.BTBEntries, cfg.BTBAssoc = 4, 4 // one set of four ways
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5}
	fill := func(p *Predictor) {
		for i := uint64(0); i < 4; i++ {
			pc := 0x1000 + i*isa.InstBytes
			pr := lookup(p, 0, pc, &jr)
			p.Commit(pc, &jr, &pr, true, 0x8000+i)
		}
	}
	target := func(p *Predictor, pc uint64) uint64 {
		pr := lookup(p, 0, pc, &jr)
		return pr.Target
	}

	// Without a lookup, the oldest insert (pc 0x1000) is the victim.
	p := new(Predictor).Reset(cfg)
	fill(p)
	pr := lookup(p, 0, 0x2000, &jr)
	p.Commit(0x2000, &jr, &pr, true, 0x9000)
	if got := target(p, 0x1000); got != 0x1000+isa.InstBytes {
		t.Fatalf("untouched oldest entry survived: target 0x%x", got)
	}

	// A lookup hit on 0x1000 moves the victim to the next oldest, 0x1004.
	p = new(Predictor).Reset(cfg)
	fill(p)
	if got := target(p, 0x1000); got != 0x8000 {
		t.Fatalf("lookup of 0x1000 missed: target 0x%x", got)
	}
	pr = lookup(p, 0, 0x2000, &jr)
	p.Commit(0x2000, &jr, &pr, true, 0x9000)
	if got := target(p, 0x1000); got != 0x8000 {
		t.Errorf("entry refreshed by Lookup was evicted: target 0x%x", got)
	}
	if got := target(p, 0x1004); got != 0x1004+isa.InstBytes {
		t.Errorf("next-oldest entry survived: target 0x%x", got)
	}
}

// Train is the one-call form of the four-call training sequence the
// core applies to a committed branch.  Two predictors see one resolved
// branch stream, one through Train and one through Lookup, SpecUpdate,
// Restore on a mispredict, and Commit; after every branch Train must
// return the reference's predicted direction and PHT history, and the
// predictors must be deep-equal.  The stream covers what the workloads
// never reach: calls nested deeper than the return stack, returns on an
// empty stack and mispredicted returns, and indirect jumps cycling more
// targets through one BTB set than it has ways, so LRU replacement
// (including the stamp a lookup hit refreshes) decides the victims.
func TestTrainMatchesLookupSequence(t *testing.T) {
	type branch struct {
		ctx   int
		pc    uint64
		in    isa.Inst
		taken bool
		next  uint64
	}
	cfg := Default(2)
	sets := uint64(cfg.BTBEntries / cfg.BTBAssoc)
	var stream []branch
	add := func(ctx int, pc uint64, in isa.Inst, taken bool, next uint64) {
		stream = append(stream, branch{ctx, pc, in, taken, next})
	}
	x := uint64(1)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33 % n
	}
	ret := isa.Inst{Op: isa.OpJr, Rs1: isa.RegRA}
	jr := isa.Inst{Op: isa.OpJr, Rs1: 5}
	for ctx := 0; ctx < 2; ctx++ {
		add(ctx, 0x9000, ret, true, 0x1234) // return on an empty stack
	}
	maxDepth := 0
	for round := 0; round < 400; round++ {
		ctx := round % 2
		for i := uint64(0); i < 6; i++ {
			pc := 0x1000 + 0x40*i
			taken := rnd(4) != 0 || round%3 == 0
			next := pc + isa.InstBytes
			if taken {
				next = pc + 0x800
			}
			add(ctx, pc, beq(pc+0x800), taken, next)
		}
		add(ctx, 0x1800, isa.Inst{Op: isa.OpJ, Target: 0x1c00}, true, 0x1c00)

		// Nested calls, up to RASEntries+4 deep, then their returns
		// and, every fifth round, one return too many.
		depth := int(1 + rnd(uint64(cfg.RASEntries+4)))
		maxDepth = max(maxDepth, depth)
		for d := 0; d < depth; d++ {
			pc := 0x2000 + 0x40*uint64(d)
			add(ctx, pc, isa.Inst{Op: isa.OpJal, Rd: isa.RegRA, Target: pc + 0x1000}, true, pc+0x1000)
		}
		for d := depth - 1; d >= 0; d-- {
			add(ctx, 0x3010+0x40*uint64(d), ret, true, 0x2000+0x40*uint64(d)+isa.InstBytes)
		}
		if round%5 == 0 {
			add(ctx, 0x3ff0, ret, true, 0x5000)
		}

		// Six indirect jumps in one four-way BTB set, each with one of
		// three targets.
		for i := rnd(6); i < 6; i++ {
			pc := 0x6000 + i*sets*isa.InstBytes
			add(ctx, pc, jr, true, 0x7000+rnd(3)*isa.InstBytes)
		}
	}
	if maxDepth <= cfg.RASEntries {
		t.Fatalf("calls nest only %d deep, not past the %d-entry return stack", maxDepth, cfg.RASEntries)
	}

	got, want := new(Predictor).Reset(cfg), new(Predictor).Reset(cfg)
	var condMiss, retMiss, btbHit, btbMiss int
	for i := range stream {
		b := &stream[i]
		predTaken := got.Train(b.ctx, b.pc, &b.in, b.taken, b.next)

		var pr Pred
		want.Lookup(b.ctx, b.pc, &b.in, &pr)
		want.SpecUpdate(b.ctx, &b.in, b.pc, &pr)
		mispredict := pr.Taken != b.taken || b.taken && pr.Target != b.next
		if mispredict {
			want.Restore(b.ctx, &b.in, &pr, b.taken)
		}
		want.Commit(b.pc, &b.in, &pr, b.taken, b.next)

		if predTaken != pr.Taken {
			t.Fatalf("branch %d (%v at 0x%x): Train returned %v, want %v",
				i, b.in, b.pc, predTaken, pr.Taken)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("branch %d (%v at 0x%x): predictor state differs after Train", i, b.in, b.pc)
		}
		switch {
		case b.in.IsCondBranch():
			if mispredict {
				condMiss++
			}
		case b.in.IsReturn():
			if mispredict {
				retMiss++
			}
		case b.in.IsIndirect():
			if pr.BTBMiss {
				btbMiss++
			} else {
				btbHit++
			}
		}
	}
	t.Logf("%d branches: %d conditional and %d return mispredicts, %d BTB hits and %d misses",
		len(stream), condMiss, retMiss, btbHit, btbMiss)
	if condMiss == 0 || retMiss == 0 || btbHit == 0 || btbMiss == 0 {
		t.Error("the stream misses a case it is meant to cover")
	}
}
