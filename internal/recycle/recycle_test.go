package recycle

import (
	"testing"
	"testing/quick"

	"recyclesim/internal/isa"
)

func TestWrittenBitsBasics(t *testing.T) {
	w := new(WrittenBits).Reset(4)
	mask := uint16(0b1111)
	if w.Changed(5, 2) {
		t.Error("fresh array should report unchanged")
	}
	w.MarkWritten(5, mask)
	for ctx := 0; ctx < 4; ctx++ {
		if !w.Changed(5, ctx) {
			t.Errorf("ctx %d should see reg 5 changed", ctx)
		}
	}
	if w.Changed(6, 0) {
		t.Error("other registers unaffected")
	}
	w.ResetContext(2)
	if w.Changed(5, 2) {
		t.Error("reset column should be clear")
	}
	if !w.Changed(5, 1) {
		t.Error("other columns must survive a reset")
	}
}

func TestWrittenBitsPartitionMask(t *testing.T) {
	w := new(WrittenBits).Reset(8)
	// Partition A = contexts 0-3, partition B = 4-7.
	w.MarkWritten(3, 0b00001111)
	if w.Changed(3, 5) {
		t.Error("partition B must not see partition A's writes")
	}
	if !w.Changed(3, 2) {
		t.Error("partition A context should see the write")
	}
}

func TestWrittenBitsReuseCase(t *testing.T) {
	w := new(WrittenBits).Reset(4)
	mask := uint16(0b1111)
	// A reused definition re-installs ctx 1's own mapping: its column
	// stays clear, everyone else's is set.
	w.MarkWrittenExcept(7, mask, 1)
	if w.Changed(7, 1) {
		t.Error("reuse source column should stay clear")
	}
	if !w.Changed(7, 0) || !w.Changed(7, 3) {
		t.Error("other columns should be set")
	}
	// ClearFor reopens chained reuse after the row was fully set.
	w.MarkWritten(7, mask)
	w.ClearFor(7, 1)
	if w.Changed(7, 1) {
		t.Error("ClearFor failed")
	}
}

func TestWrittenBitsSetAll(t *testing.T) {
	w := new(WrittenBits).Reset(4)
	w.SetAll(0b0011)
	if !w.Changed(1, 0) || !w.Changed(31, 1) {
		t.Error("SetAll should mark every register for masked contexts")
	}
	if w.Changed(1, 2) {
		t.Error("SetAll must respect the mask")
	}
}

func TestWrittenBitsZeroRegister(t *testing.T) {
	w := new(WrittenBits).Reset(2)
	w.MarkWritten(isa.RegZero, 0b11)
	if w.Changed(isa.RegZero, 0) {
		t.Error("the zero register never changes")
	}
}

// The array packs four 16-bit rows per word.  Driven through random
// operations side by side with one plain row per register, it answers
// Changed as the rows do for every register and context.
func TestWrittenBitsMatchesRows(t *testing.T) {
	w := new(WrittenBits).Reset(16)
	var rows [isa.NumRegs]uint16
	x := uint64(1)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33 % n
	}
	for step := 0; step < 5_000; step++ {
		reg, ctx, mask := isa.Reg(rnd(isa.NumRegs)), int(rnd(16)), uint16(rnd(1<<16))
		switch rnd(6) {
		case 0:
			w.MarkWritten(reg, mask)
			rows[reg] |= mask
		case 1:
			regs := rnd(1<<32) | rnd(1<<32)<<32
			w.MarkRegs(regs, ctx)
			for r := range rows {
				if regs>>r&1 != 0 {
					rows[r] |= 1 << ctx
				}
			}
		case 2:
			w.ClearFor(reg, ctx)
			rows[reg] &^= 1 << ctx
		case 3:
			w.MarkWrittenExcept(reg, mask, ctx)
			rows[reg] |= mask &^ (1 << ctx)
		case 4:
			if rnd(50) == 0 {
				w.SetAll(mask)
				for r := range rows {
					rows[r] |= mask
				}
			}
		case 5:
			w.ResetContext(ctx)
			for r := range rows {
				rows[r] &^= 1 << ctx
			}
		}
		for r := 1; r < isa.NumRegs; r++ {
			for c := 0; c < 16; c++ {
				if got, want := w.Changed(isa.Reg(r), c), rows[r]>>c&1 != 0; got != want {
					t.Fatalf("step %d: Changed(%d, %d) = %v, want %v", step, r, c, got, want)
				}
			}
		}
	}
}

func TestMDBInsertAndInvalidate(t *testing.T) {
	m := new(MDB).Reset(4)
	m.InsertLoad(0x100, 0x8000)
	if !m.Reusable(0x100, 0x8000) {
		t.Error("inserted load should be reusable")
	}
	if m.Reusable(0x104, 0x8000) {
		t.Error("different PC should not match")
	}
	m.StoreTo(0x8000)
	if m.Reusable(0x100, 0x8000) {
		t.Error("store must invalidate the load")
	}
	if m.Len() != 0 {
		t.Errorf("len = %d", m.Len())
	}
}

func TestMDBStoreOnlyMatchingAddress(t *testing.T) {
	m := new(MDB).Reset(4)
	m.InsertLoad(0x100, 0x8000)
	m.InsertLoad(0x104, 0x8008)
	m.StoreTo(0x8000)
	if m.Reusable(0x100, 0x8000) {
		t.Error("stored-to address should be invalid")
	}
	if !m.Reusable(0x104, 0x8008) {
		t.Error("other address must survive")
	}
}

func TestMDBCapacityFIFO(t *testing.T) {
	m := new(MDB).Reset(2)
	m.InsertLoad(0x100, 0x8000)
	m.InsertLoad(0x104, 0x8008)
	m.InsertLoad(0x108, 0x8010) // evicts the first
	if m.Reusable(0x100, 0x8000) {
		t.Error("oldest entry should be evicted")
	}
	if !m.Reusable(0x104, 0x8008) || !m.Reusable(0x108, 0x8010) {
		t.Error("newer entries should survive")
	}
}

// Re-inserting a present pair adds no entry and leaves its FIFO age
// alone: the oldest pair, inserted again, is still evicted first.
func TestMDBReinsertKeepsAge(t *testing.T) {
	m := new(MDB).Reset(4)
	m.InsertLoad(0x100, 0x8000)
	m.InsertLoad(0x100, 0x8000) // duplicate: no double entry
	if m.Len() != 1 {
		t.Errorf("len = %d, want 1", m.Len())
	}
	for i := uint64(1); i < 4; i++ {
		m.InsertLoad(0x100+4*i, 0x8000+8*i)
	}
	m.InsertLoad(0x100, 0x8000) // the oldest again: still the oldest
	m.InsertLoad(0x200, 0x9000) // full: evicts the oldest
	if m.Reusable(0x100, 0x8000) {
		t.Error("re-inserted oldest pair survived an eviction")
	}
	for i := uint64(1); i < 4; i++ {
		if !m.Reusable(0x100+4*i, 0x8000+8*i) {
			t.Errorf("pair %d evicted ahead of the oldest", i)
		}
	}
	m.StoreTo(0x8008)
	if m.Reusable(0x104, 0x8008) {
		t.Error("invalidated after store")
	}
}

// Presence is exact: a pair that was never inserted is not reusable
// even when its folded key equals a live pair's.
func TestMDBKeyCollisionNotReusable(t *testing.T) {
	const k = 0x9E3779B97F4A7C15 // mdbKey's multiplier
	var pc1, addr1, pc2 uint64 = 0x1040, 0x8000, 0x2088
	addr2 := pc1*k ^ addr1 ^ pc2*k
	if mdbKey(pc1, addr1) != mdbKey(pc2, addr2) {
		t.Fatal("constructed pair does not collide")
	}
	m := new(MDB).Reset(8)
	m.InsertLoad(pc1, addr1)
	if !m.Reusable(pc1, addr1) {
		t.Error("inserted pair not reusable")
	}
	if m.Reusable(pc2, addr2) {
		t.Errorf("Reusable(%#x, %#x) = true for a pair never inserted", pc2, addr2)
	}
}

// Property: the MDB never reports a load reusable after a store to the
// same address, under any operation interleaving.
func TestMDBSafetyProperty(t *testing.T) {
	type op struct {
		Store bool
		PC    uint8
		Addr  uint8
	}
	fn := func(ops []op) bool {
		m := new(MDB).Reset(8)
		lastStore := map[uint64]int{}
		lastLoad := map[[2]uint64]int{}
		for i, o := range ops {
			pc := uint64(o.PC) * 4
			addr := uint64(o.Addr) * 8
			if o.Store {
				m.StoreTo(addr)
				lastStore[addr] = i
			} else {
				m.InsertLoad(pc, addr)
				lastLoad[[2]uint64{pc, addr}] = i
			}
		}
		for key, li := range lastLoad {
			if si, ok := lastStore[key[1]]; ok && si > li {
				if m.Reusable(key[0], key[1]) {
					return false // store-after-load yet still reusable
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refMDB is the buffer as a plain slice FIFO: evict from the front,
// append at the back, invalidate in place.  The ring must agree with it
// on every query.
type refMDB struct {
	cap  int
	fifo []mdbEntry
}

func (r *refMDB) insert(pc, addr uint64) {
	if r.reusable(pc, addr) {
		return
	}
	if len(r.fifo) == r.cap {
		r.fifo = r.fifo[1:]
	}
	r.fifo = append(r.fifo, mdbEntry{pc: pc, addr: addr, valid: true})
}

func (r *refMDB) storeTo(addr uint64) {
	for i := range r.fifo {
		if r.fifo[i].addr == addr {
			r.fifo[i].valid = false
		}
	}
}

func (r *refMDB) reusable(pc, addr uint64) bool {
	for _, e := range r.fifo {
		if e.valid && e.pc == pc && e.addr == addr {
			return true
		}
	}
	return false
}

func (r *refMDB) len() int {
	n := 0
	for _, e := range r.fifo {
		if e.valid {
			n++
		}
	}
	return n
}

// The ring wraps several times: more than three capacities of loads
// with stores interleaved, so evictions meet both live and invalidated
// heads.  After every operation each (pc, addr) pair in play must be
// reusable exactly when the reference FIFO says so, and Len must agree.
// A Reset midway must leave a buffer equal to a fresh one.
func TestMDBRingMatchesFIFO(t *testing.T) {
	const capacity = 8
	m, ref := new(MDB).Reset(capacity), &refMDB{cap: capacity}
	x := uint32(12345)
	next := func(n uint32) uint64 { // a fixed LCG stream: reproducible
		x = x*1664525 + 1013904223
		return uint64(x>>16) % uint64(n)
	}
	const pcs, addrs = 6, 10
	for i := 0; i < 40*capacity; i++ {
		if i == 20*capacity {
			m.Reset(capacity)
			ref = &refMDB{cap: capacity}
		}
		if next(4) == 0 {
			addr := 8 * next(addrs)
			m.StoreTo(addr)
			ref.storeTo(addr)
		} else {
			pc, addr := 4*next(pcs), 8*next(addrs)
			m.InsertLoad(pc, addr)
			ref.insert(pc, addr)
		}
		if m.Len() != ref.len() {
			t.Fatalf("op %d: Len %d, reference %d", i, m.Len(), ref.len())
		}
		for pc := uint64(0); pc < 4*pcs; pc += 4 {
			for addr := uint64(0); addr < 8*addrs; addr += 8 {
				if got, want := m.Reusable(pc, addr), ref.reusable(pc, addr); got != want {
					t.Fatalf("op %d: Reusable(%#x, %#x) = %v, reference %v", i, pc, addr, got, want)
				}
			}
		}
	}
}

// A buffer in use allocates nothing once its index has grown: the ring
// never reslices or appends.  (A slice FIFO that evicts by reslicing
// the front reallocates once per capacity's worth of inserts.)
func TestMDBSteadyStateAllocs(t *testing.T) {
	m := new(MDB).Reset(64)
	i := uint64(0)
	steps := func() {
		for range 1_000 {
			m.InsertLoad(0x1000+4*(i%96), 0x8000+8*(i%80))
			if i%5 == 0 {
				m.StoreTo(0x8000 + 8*(i%80))
			}
			i++
		}
	}
	steps()
	if n := testing.AllocsPerRun(20, steps); n != 0 {
		t.Errorf("MDB: %v allocs per 1,000 inserts", n)
	}
}

func TestMergePoints(t *testing.T) {
	var m MergePoints
	if _, _, ok := m.Match(0x1000); ok {
		t.Error("empty merge points should not match")
	}
	m.SetFirst(0x1000, 3)
	m.SetBack(0x2000, 7)
	if seq, back, ok := m.Match(0x1000); !ok || back || seq != 3 {
		t.Errorf("first match: %d %v %v", seq, back, ok)
	}
	if seq, back, ok := m.Match(0x2000); !ok || !back || seq != 7 {
		t.Errorf("back match: %d %v %v", seq, back, ok)
	}
	// First-PC wins when both name the same address.
	m.SetBack(0x1000, 9)
	if seq, back, _ := m.Match(0x1000); back || seq != 3 {
		t.Error("first-PC point should win")
	}
}

func TestMergePointsInvalidation(t *testing.T) {
	var m MergePoints
	m.SetFirst(0x1000, 3)
	m.SetBack(0x2000, 7)
	m.DropSeq(7)
	if _, _, ok := m.Match(0x2000); ok {
		t.Error("dropped backward point should not match")
	}
	m.DropSeq(3)
	if _, _, ok := m.Match(0x1000); ok {
		t.Error("dropped first point should not match")
	}

	m.SetFirst(0x1000, 3)
	m.SetBack(0x2000, 7)
	m.DropFrom(5)
	if _, _, ok := m.Match(0x2000); ok {
		t.Error("squash range should invalidate the backward point")
	}
	if _, _, ok := m.Match(0x1000); !ok {
		t.Error("older first point should survive DropFrom(5)")
	}
	m.Invalidate()
	if _, _, ok := m.Match(0x1000); ok {
		t.Error("Invalidate should clear everything")
	}
}

func TestWrittenBitsTooManyContexts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for >16 contexts")
		}
	}()
	new(WrittenBits).Reset(17)
}
