package cache

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func small() Params {
	return Params{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, Banks: 2, HitLat: 1}
}

func TestGeometry(t *testing.T) {
	c := new(Cache).Reset(small())
	if c.Sets() != 1024/(64*2) {
		t.Errorf("sets = %d", c.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := new(Cache).Reset(small())
	if hit, _ := c.Lookup(1, 0x1000); hit {
		t.Error("cold access should miss")
	}
	if hit, _ := c.Lookup(2, 0x1000); !hit {
		t.Error("second access should hit")
	}
	if hit, _ := c.Lookup(3, 0x1038); !hit {
		t.Error("same-line access should hit")
	}
	if c.Stats.Misses != 1 || c.Stats.Accesses != 3 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := new(Cache).Reset(small()) // 8 sets, 2 ways; same-set stride = 8*64 = 512
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Lookup(1, a)
	c.Lookup(2, b)
	c.Lookup(3, a) // refresh a
	c.Lookup(4, d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive")
	}
	if c.Contains(b) {
		t.Error("b should be evicted")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
}

func TestBankConflictSameCycle(t *testing.T) {
	c := new(Cache).Reset(small()) // 2 banks; lines alternate banks
	if _, delay := c.Lookup(5, 0x0); delay != 0 {
		t.Errorf("first access delayed %d", delay)
	}
	if _, delay := c.Lookup(5, 0x80); delay != 1 { // same bank (line 2 % 2 banks = 0)
		t.Errorf("same-cycle same-bank access delayed %d, want 1", delay)
	}
	if _, delay := c.Lookup(5, 0x40); delay != 0 { // other bank
		t.Errorf("other-bank access delayed %d", delay)
	}
	// Next cycle the bank is free again: no cross-cycle queue buildup.
	if _, delay := c.Lookup(6, 0x0); delay != 0 {
		t.Errorf("next-cycle access delayed %d", delay)
	}
}

func TestBankDelayBounded(t *testing.T) {
	c := new(Cache).Reset(small())
	// Hammer one bank for many cycles from two "threads"; the delay
	// must never exceed the same-cycle access count.
	for cyc := uint64(1); cyc < 1000; cyc++ {
		_, d1 := c.Lookup(cyc, 0x0)
		_, d2 := c.Lookup(cyc, 0x80)
		if d1 != 0 || d2 != 1 {
			t.Fatalf("cycle %d: delays %d, %d — queue built up across cycles", cyc, d1, d2)
		}
	}
}

func TestHierarchyLatencyChain(t *testing.T) {
	h := new(Hierarchy).Reset(DefaultHierarchy(1))
	// Cold access: L1 miss + L2 miss + L3 miss + memory.
	lat := h.AccessD(1, 0x10000)
	want := 1 + 6 + 12 + 62
	if lat != want {
		t.Errorf("cold access latency = %d, want %d", lat, want)
	}
	// Now everything is resident.
	if lat := h.AccessD(2, 0x10000); lat != 1 {
		t.Errorf("warm access latency = %d, want 1", lat)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := new(Hierarchy).Reset(DefaultHierarchy(1))
	h.AccessD(1, 0x10000) // fill all levels
	// Evict from the direct-mapped L1 by touching the conflicting line.
	conflict := uint64(0x10000) + uint64(h.DL1.Sets()*64)
	h.AccessD(2, conflict)
	// Original line now misses L1 but hits L2.
	lat := h.AccessD(3, 0x10000)
	if lat != 1+6 {
		t.Errorf("L2 hit latency = %d, want 7", lat)
	}
}

func TestInstructionPathSeparate(t *testing.T) {
	h := new(Hierarchy).Reset(DefaultHierarchy(1))
	h.AccessD(1, 0x4000)
	lat, hit := h.AccessI(2, 0x4000)
	if hit {
		t.Error("IL1 should not be warmed by data accesses")
	}
	// The D-side fill left the line in L2, so the I-miss is served by
	// the L2, not memory.
	if lat != 1+6 {
		t.Errorf("I-miss after D-fill latency = %d, want 7", lat)
	}
	if _, hit := h.AccessI(3, 0x4000); !hit {
		t.Error("IL1 should now be warm")
	}
}

func TestCacheScale(t *testing.T) {
	p := DefaultHierarchy(2)
	if p.IL1.SizeBytes != 32*1024 || p.L2.SizeBytes != 128*1024 {
		t.Errorf("scaled sizes: IL1=%d L2=%d", p.IL1.SizeBytes, p.L2.SizeBytes)
	}
	if p.L3.SizeBytes != 4*1024*1024 {
		t.Error("the off-chip L3 is not scaled")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
	s.Accesses, s.Misses = 10, 3
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %f", s.MissRate())
	}
}

// Property: a line that was just accessed is always resident
// immediately afterwards (fill-on-miss), regardless of access sequence.
func TestFillOnMissProperty(t *testing.T) {
	c := new(Cache).Reset(small())
	cycle := uint64(0)
	fn := func(addrs []uint16) bool {
		for _, a := range addrs {
			cycle++
			addr := uint64(a) * 8
			c.Lookup(cycle, addr)
			if !c.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-size cache")
		}
	}()
	new(Cache).Reset(Params{Name: "bad"})
}

// train drives a cache hierarchy with a pseudo-random stream of
// instruction and data accesses seeded by seed, several per cycle so
// the bank state is busy.
func train(h *Hierarchy, seed, n uint64) {
	x := seed
	for i := uint64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		now := 100*seed + i/3
		if x&1 == 0 {
			h.AccessI(now, x>>20)
		} else {
			h.AccessD(now, x>>20)
		}
	}
}

// sweep touches n consecutive lines from base on both sides, one
// access per cycle from cycle now, and returns the latencies seen, so
// two hierarchies can be compared access by access.
func sweep(h *Hierarchy, now, base, n uint64) []int {
	var lats []int
	for i := uint64(0); i < n; i++ {
		lat, _ := h.AccessI(now+i, base+64*i)
		lats = append(lats, lat, h.AccessD(now+i, base+64*i+32))
	}
	return lats
}

// sameState reports whether a and b, two *Cache or two *Hierarchy,
// hold the same state: deeply equal apart from the caches' spare page
// lists, which only supply later first fills and are zeroed when they
// do.  A dropped page left in the page table still differs.
func sameState(a, b any) bool {
	switch a := a.(type) {
	case *Cache:
		x, y := *a, *b.(*Cache)
		x.spare, y.spare = nil, nil
		return reflect.DeepEqual(x, y)
	case *Hierarchy:
		b := b.(*Hierarchy)
		return a.p == b.p && sameState(a.IL1, b.IL1) && sameState(a.DL1, b.DL1) &&
			sameState(a.L2, b.L2) && sameState(a.L3, b.L3)
	}
	panic("sameState: not a cache or a hierarchy")
}

// CopyFrom into a dirty destination — trained on another stream, with
// stale bank state, or built with a smaller geometry — equals CopyFrom
// into a zero value, and the copy shares nothing with the source.
func TestCopyFromMatchesClone(t *testing.T) {
	// src and want see the same stream, so want is an independent
	// witness of src's state.
	src, want := new(Hierarchy).Reset(DefaultHierarchy(1)), new(Hierarchy).Reset(DefaultHierarchy(1))
	train(src, 1, 20_000)
	train(want, 1, 20_000)
	for _, dst := range []*Hierarchy{
		new(Hierarchy).Reset(DefaultHierarchy(1)),
		new(Hierarchy).Reset(DefaultHierarchy(4)),
	} {
		train(dst, 2, 5_000)
		dst.CopyFrom(src)
		zero := &Hierarchy{}
		zero.CopyFrom(src)
		if !sameState(dst, zero) {
			t.Fatal("Hierarchy.CopyFrom differs from one into a zero Hierarchy")
		}
		train(dst, 3, 5_000)
		if !reflect.DeepEqual(src, want) {
			t.Fatal("training the copy changed the source hierarchy")
		}
	}

	// A same-geometry destination trained on addresses the source never
	// saw holds lines in sets the source never filled (in the L3 at
	// least): the copy must drop those pages to its spare list, and then
	// behave exactly like a copy into a zero Hierarchy, hit for hit, as the sets of the
	// dropped pages fill again from the spares.
	src = new(Hierarchy).Reset(DefaultHierarchy(1))
	sweep(src, 1, 0, 1_000)
	dst := new(Hierarchy).Reset(DefaultHierarchy(1))
	sweep(dst, 1, 1<<20, 1_000)
	dst.CopyFrom(src)
	clone := &Hierarchy{}
	clone.CopyFrom(src)
	if !sameState(dst, clone) {
		t.Fatal("CopyFrom over a disjointly trained hierarchy differs from one into a zero Hierarchy")
	}
	if len(dst.L3.spare) == 0 {
		t.Fatal("CopyFrom over a disjointly trained hierarchy kept no dropped L3 page spare")
	}
	if got, want := sweep(dst, 5_000, 1<<20, 2_000), sweep(clone, 5_000, 1<<20, 2_000); !reflect.DeepEqual(got, want) {
		t.Fatal("a copy over a disjointly trained hierarchy hits and misses unlike a copy into a zero Hierarchy")
	}

	fill := func(c *Cache) *Cache {
		for i := uint64(0); i < 200; i++ {
			c.Lookup(i/4, i*40)
		}
		return c
	}
	c, cWant := fill(new(Cache).Reset(small())), fill(new(Cache).Reset(small()))
	d := new(Cache).Reset(small())
	d.Lookup(1_000, 0x40)
	d.Lookup(1_000, 0xc0) // same bank, same cycle: a stale bank count
	d.CopyFrom(c)
	zero := &Cache{}
	zero.CopyFrom(c)
	if !sameState(d, zero) {
		t.Fatal("Cache.CopyFrom differs from one into a zero Cache")
	}
	d.Lookup(2_000, 0x9000)
	d.Lookup(2_000, 0x9080)
	if !reflect.DeepEqual(c, cWant) {
		t.Fatal("training the copy changed the source cache")
	}
}

// A cache indexes with shifts and masks, so Reset refuses a line size,
// set count or bank count that is not a power of two.
func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	ok := Params{Name: "t", SizeBytes: 4096, LineBytes: 64, Assoc: 2, Banks: 4}
	for _, tc := range []struct {
		name  string
		edit  func(*Params)
		panic bool
	}{
		{"power-of-two geometry", func(*Params) {}, false},
		{"banking off", func(p *Params) { p.Banks = 0 }, false},
		{"one set", func(p *Params) { p.SizeBytes = 128 }, false},
		{"line 48 bytes", func(p *Params) { p.LineBytes = 48 }, true},
		{"24 sets", func(p *Params) { p.SizeBytes = 24 * 64 * 2 }, true},
		{"3 ways, 21 sets", func(p *Params) { p.Assoc = 3 }, true},
		{"6 banks", func(p *Params) { p.Banks = 6 }, true},
	} {
		p := ok
		tc.edit(&p)
		got := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			new(Cache).Reset(p)
			return false
		}()
		if got != tc.panic {
			t.Errorf("%s: Reset panicked = %v, want %v", tc.name, got, tc.panic)
		}
	}
}

// Validate refuses a hierarchy with a level smaller than one full set,
// and Reset panics on such a level rather than build a one-set cache
// larger than its stated size.  At scale 2048 the 64 KB direct-mapped
// L1s hold 32 bytes, half a line.
func TestHierarchyValidate(t *testing.T) {
	if err := DefaultHierarchy(1024).Validate(); err != nil {
		t.Errorf("scale 1024: %v", err)
	}
	p := DefaultHierarchy(2048)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "IL1") {
		t.Errorf("scale 2048: Validate = %v, want an error naming IL1", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset built a cache smaller than one set")
		}
	}()
	new(Cache).Reset(p.IL1)
}
