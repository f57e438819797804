package program

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"recyclesim/internal/isa"
)

func prog2() *Program {
	return &Program{
		Name:  "t",
		Code:  []isa.Inst{{Op: isa.OpNop}, {Op: isa.OpHalt}},
		Entry: CodeBase,
	}
}

func TestPCToIndex(t *testing.T) {
	p := prog2()
	if i, ok := p.PCToIndex(CodeBase); !ok || i != 0 {
		t.Errorf("entry index: %d %v", i, ok)
	}
	if i, ok := p.PCToIndex(CodeBase + isa.InstBytes); !ok || i != 1 {
		t.Errorf("second index: %d %v", i, ok)
	}
	if _, ok := p.PCToIndex(CodeBase + 2*isa.InstBytes); ok {
		t.Error("past-end PC resolved")
	}
	if _, ok := p.PCToIndex(CodeBase + 1); ok {
		t.Error("misaligned PC resolved")
	}
	if _, ok := p.PCToIndex(0); ok {
		t.Error("below-base PC resolved")
	}
}

func TestFetchOutsideTextIsHalt(t *testing.T) {
	p := prog2()
	if in := p.FetchInst(0xDEAD00); !in.IsHalt() {
		t.Error("wrong-path fetch outside text must be a halt")
	}
	if p.EndPC() != CodeBase+2*isa.InstBytes {
		t.Errorf("end pc = 0x%x", p.EndPC())
	}
}

func TestValidate(t *testing.T) {
	p := prog2()
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	p.Entry = 0
	if err := p.Validate(); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	p := prog2()
	p.Data = []uint64{7}
	m := NewMemory(p)
	if m.Read(DataBase) != 7 {
		t.Error("initial data missing")
	}
	if m.Read(DataBase+8) != 0 {
		t.Error("untouched word should read zero")
	}
	m.Write(DataBase+16, 9)
	if m.Read(DataBase+16) != 9 {
		t.Error("write lost")
	}
	// Unaligned accesses truncate to the containing word, and leave
	// its neighbours alone.
	m.Write(DataBase+17, 11)
	if m.Read(DataBase+16) != 11 || m.Read(DataBase+23) != 11 {
		t.Error("alignment truncation broken")
	}
	if m.Read(DataBase+8) != 0 || m.Read(DataBase+24) != 0 || m.Read(DataBase) != 7 {
		t.Error("an unaligned write reached a neighbouring word")
	}
	// Words on either side of a page edge are distinct.
	m.Write(0xff8, 1)
	m.Write(0x1000, 2)
	if m.Read(0xff8) != 1 || m.Read(0x1000) != 2 || m.Read(0xff0) != 0 || m.Read(0x1008) != 0 {
		t.Error("page edge words alias")
	}
}

func TestMemoryCloneIndependent(t *testing.T) {
	p := prog2()
	m := NewMemory(p)
	m.Write(0x100, 1)
	c := &Memory{}
	c.CopyFrom(m)
	c.Write(0x100, 2)
	if m.Read(0x100) != 1 || c.Read(0x100) != 2 {
		t.Error("a copy into a zero Memory aliases the original")
	}
}

// Property: a write followed by a read of any address within the same
// aligned word returns the written value.
func TestMemoryWordSemantics(t *testing.T) {
	m := NewMemory(prog2())
	fn := func(addr uint64, val uint64, off uint8) bool {
		m.Write(addr, val)
		return m.Read(addr&^7+uint64(off%8)) == val
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Delta against the initial image must be sorted by address, contain
// exactly the changed words, and reproduce the memory via Apply.
func TestMemoryDeltaApplyRoundTrip(t *testing.T) {
	p := prog2()
	p.Data = []uint64{7, 9}
	base := NewMemory(p)
	m := NewMemory(p)
	m.Write(DataBase, 100)   // changed word
	m.Write(DataBase+8, 9)   // written back to its initial value: not in the delta
	m.Write(StackBase-16, 5) // new word
	m.Write(0x4000, 1)       // new word, lower address
	delta := m.Delta(base, nil)
	want := []Word{{0x4000, 1}, {DataBase, 100}, {StackBase - 16, 5}}
	if len(delta) != len(want) {
		t.Fatalf("delta %v, want %v", delta, want)
	}
	for i := range want {
		if delta[i] != want[i] {
			t.Fatalf("delta[%d] = %+v, want %+v", i, delta[i], want[i])
		}
	}
	r := NewMemory(p)
	r.Apply(delta)
	for _, a := range []uint64{DataBase, DataBase + 8, StackBase - 16, 0x4000, 0x9999} {
		if r.Read(a) != m.Read(a) {
			t.Errorf("addr 0x%x: restored %d != original %d", a, r.Read(a), m.Read(a))
		}
	}
}

// An unchanged memory has an empty delta.
func TestMemoryDeltaEmpty(t *testing.T) {
	p := prog2()
	p.Data = []uint64{3}
	if d := NewMemory(p).Delta(NewMemory(p), nil); len(d) != 0 {
		t.Errorf("fresh memory delta = %v, want empty", d)
	}
}

// Reading a page never written and writing to a page already held
// allocate nothing: the emulator and the core do both on every load
// and committed store.
func TestMemoryAllocs(t *testing.T) {
	m := NewMemory(prog2())
	m.Write(DataBase, 1)
	addr := DataBase
	if n := testing.AllocsPerRun(100, func() { _ = m.Read(0xffff_ffff_ffff_fff8) }); n != 0 {
		t.Errorf("Read of an absent page: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Write(addr, 2); addr ^= 0x10 }); n != 0 {
		t.Errorf("Write to an existing page: %v allocs", n)
	}
	// A sampled interval restores its memory with CopyFrom from the
	// initial image into the memory the previous interval left: the
	// same page set, so the copy must reuse every page.
	p := prog2()
	p.Data = make([]uint64, pageWords+1)
	p.Data[0], p.Data[pageWords] = 7, 3
	base, dst := NewMemory(p), NewMemory(p)
	base.Write(StackBase-8, 1)
	dst.Write(StackBase-8, 1)
	dst.Write(DataBase+8, 5)
	if n := testing.AllocsPerRun(100, func() { dst.CopyFrom(base); dst.Write(DataBase+8, 5) }); n != 0 {
		t.Errorf("CopyFrom between memories with the same pages: %v allocs", n)
	}
	if dst.Read(DataBase) != 7 || dst.Read(StackBase-8) != 1 {
		t.Error("CopyFrom lost the source's words")
	}
}

// CopyFrom onto a zero Memory, and onto one holding pages the source
// lacks, yields an exact copy; the retired pages come back zeroed.
func TestMemoryCopyFrom(t *testing.T) {
	p := prog2()
	p.Data = []uint64{7}
	src := NewMemory(p)
	var m Memory
	m.CopyFrom(src)
	if m.Read(DataBase) != 7 || m.Read(DataBase+8) != 0 {
		t.Error("copy onto a zero Memory differs from its source")
	}
	m.Write(StackBase-8, 9) // a page src lacks
	m.CopyFrom(src)
	if m.Read(StackBase-8) != 0 || len(m.spare) != 1 {
		t.Errorf("page src lacks: reads %d, %d spare pages", m.Read(StackBase-8), len(m.spare))
	}
	m.Write(0x4000, 1) // takes the spare page, which held 9 at StackBase-8's offset
	if len(m.spare) != 0 || m.Read(0x4000+(StackBase-8)&0xfff) != 0 {
		t.Error("a reused spare page was not zeroed")
	}
	if src.Read(0x4000) != 0 || src.Read(StackBase-8) != 0 {
		t.Error("writes to the copy reached its source")
	}
}

// nonZeroWords returns p's data image as a map of its non-zero words
// by address: a reference memory, where an absent word reads zero.
func nonZeroWords(p *Program) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i, v := range p.Data {
		if v != 0 {
			out[DataBase+8*uint64(i)] = v
		}
	}
	return out
}

// TestNewMemoryMatchesWrites: NewMemory's page copies build the same
// memory as one Write per image word, zero words included: the same
// words, the same pages, and an empty Delta either way.  The images end
// mid-page, fill exactly one page, and cross one or two page edges.
func TestNewMemoryMatchesWrites(t *testing.T) {
	for _, n := range []int{0, 1, 100, pageWords - 1, pageWords, pageWords + 1, 2*pageWords + 37} {
		p := prog2()
		p.Data = make([]uint64, n)
		for i := range p.Data {
			if i%3 != 0 {
				p.Data[i] = uint64(i)*0x9e37_79b9_7f4a_7c15 + 1
			}
		}
		got, want := NewMemory(p), &Memory{}
		for i, v := range p.Data {
			want.Write(DataBase+8*uint64(i), v)
		}
		if !slices.Equal(got.order, want.order) {
			t.Errorf("%d words: pages %v, want %v", n, got.order, want.order)
		}
		for i := -1; i <= n; i++ {
			a := DataBase + 8*uint64(i)
			if g, w := got.Read(a), want.Read(a); g != w {
				t.Errorf("%d words: Read(%#x) = %d, want %d", n, a, g, w)
			}
		}
		if d := got.Delta(want, nil); len(d) != 0 {
			t.Errorf("%d words: Delta from one Write per word = %v, want empty", n, d)
		}
		if d := want.Delta(got, nil); len(d) != 0 {
			t.Errorf("%d words: Delta to one Write per word = %v, want empty", n, d)
		}
		// Load over a used memory gives the same words and pages.
		got.Write(StackBase-8, 1)
		got.Write(DataBase, 99)
		got.Load(p)
		if !slices.Equal(got.order, want.order) {
			t.Errorf("%d words: pages after Load %v, want %v", n, got.order, want.order)
		}
		if d := got.Delta(want, nil); len(d) != 0 {
			t.Errorf("%d words: Delta from Load after use = %v, want empty", n, d)
		}
		if d := want.Delta(got, nil); len(d) != 0 {
			t.Errorf("%d words: Delta to Load after use = %v, want empty", n, d)
		}
	}
}

// fuzzBases are the neighbourhoods FuzzMemory draws addresses from,
// each extended by a byte offset: the first page edge (0xff8 | 0x1000),
// the data segment and its first page edge, the stack, and the top of
// the address space, where wrong-path garbage lands.
var fuzzBases = [...]uint64{0, 0xf80, DataBase, DataBase + 0xf80, StackBase - 0x80, 0xffff_ffff_ffff_ff00}

// FuzzMemory checks Memory against a reference map of aligned words.
// Each 4-byte op is (kind, base, offset, value): Write, Read, CopyFrom
// into a zero Memory (independent in both directions; the copy may
// carry on as the memory under test), Delta against the current base
// followed by Apply onto a copy of it (sorted and exact), taking a new
// base, CopyFrom an independently written source after writing a page
// the source may lack (exact, and a spare page taken afterwards reads
// zero), and Delta appended to the reused buffer of earlier deltas
// behind a kept prefix, and Load of the program image (the same words
// and pages as NewMemory, with an empty Delta both ways).  Both copies,
// Delta and Load check every word written so far, so inputs are cut to
// 256 ops to keep one run cheap.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 1, 0x78, 5, 0, 1, 0x80, 6, 1, 1, 0x7f, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 5, 0xf8, 9, 0, 5, 0xff, 1, 1, 5, 0xf9, 0, 2, 5, 0xf8, 3, 3, 2, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 0, 3, 0x80, 4, 4, 0, 0, 0, 0, 3, 0x88, 7, 3, 0, 0, 0, 2, 4, 0x10, 8})
	f.Add([]byte{0, 4, 0x10, 3, 5, 1, 0x20, 6, 0, 4, 0x18, 2, 5, 0, 0x08, 7, 6, 2, 3, 0, 6, 3, 1, 0, 1, 4, 0x10, 0})
	f.Add([]byte{0, 4, 0x10, 3, 0, 2, 0x08, 5, 7, 1, 0x30, 4, 1, 2, 0x08, 0, 3, 0, 0, 0, 0, 2, 0x10, 6, 7, 4, 0, 1, 1, 4, 0x10, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4*256)]
		p := prog2()
		p.Data = make([]uint64, pageWords+1)
		p.Data[0], p.Data[1], p.Data[pageWords] = 7, 9, 3
		image := nonZeroWords(p)
		m, base := NewMemory(p), NewMemory(p)
		ref, baseRef := maps.Clone(image), maps.Clone(image)
		var buf []Word // reused by the appending Delta op
		check := func(what string, m *Memory, ref map[uint64]uint64) {
			t.Helper()
			for a, v := range ref {
				if got := m.Read(a); got != v {
					t.Fatalf("%s: Read(0x%x) = %d, want %d", what, a, got, v)
				}
			}
		}
		// checkDelta checks d against m's delta from base: exactly the
		// changed words, aligned and address-sorted, and base plus d
		// reads as m.
		checkDelta := func(d []Word) {
			t.Helper()
			// ref derives from baseRef by writes, so it holds every
			// address baseRef does.
			changed := 0
			for k, v := range ref {
				if v != baseRef[k] {
					changed++
				}
			}
			if len(d) != changed {
				t.Fatalf("delta has %d words, want %d: %v", len(d), changed, d)
			}
			for i, w := range d {
				if w.Addr&7 != 0 || (i > 0 && w.Addr <= d[i-1].Addr) {
					t.Fatalf("delta not aligned and address-sorted: %v", d)
				}
				if w.Val != ref[w.Addr] || w.Val == baseRef[w.Addr] {
					t.Fatalf("delta word %+v: memory has %d, base %d", w, ref[w.Addr], baseRef[w.Addr])
				}
			}
			r := &Memory{}
			r.CopyFrom(base)
			r.Apply(d)
			check("base+delta", r, ref)
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			a := fuzzBases[int(ops[1])%len(fuzzBases)] + uint64(ops[2])
			val := uint64(ops[3]) * 0x0101_0101_0101_0101
			switch ops[0] % 8 {
			case 0:
				m.Write(a, val)
				ref[a&^7] = val
			case 1:
				if got := m.Read(a); got != ref[a&^7] {
					t.Fatalf("Read(0x%x) = %d, want %d", a, got, ref[a&^7])
				}
			case 2:
				c, cRef := &Memory{}, maps.Clone(ref)
				c.CopyFrom(m)
				c.Write(a, ^val)
				cRef[a&^7] = ^val
				check("original after a write to its copy", m, ref)
				m.Write(a, val)
				ref[a&^7] = val
				check("copy after a write to its original", c, cRef)
				if val&1 != 0 {
					m, ref = c, cRef
				}
			case 3:
				checkDelta(m.Delta(base, nil))
			case 4:
				base, baseRef = &Memory{}, maps.Clone(ref)
				base.CopyFrom(m)
			case 5:
				// The source starts from the program image and takes
				// one write; m first writes b, on whatever page the
				// next neighbourhood gives, which the source lacks
				// unless the two coincide.
				src, srcRef := NewMemory(p), maps.Clone(image)
				src.Write(a, val)
				srcRef[a&^7] = val
				b := fuzzBases[(int(ops[1])+1)%len(fuzzBases)] + uint64(ops[3])
				m.Write(b, ^val)
				m.CopyFrom(src)
				ref = maps.Clone(srcRef)
				check("copy", m, ref)
				if got := m.Read(b); got != ref[b&^7] {
					t.Fatalf("copy: Read(0x%x) = %d, want %d", b, got, ref[b&^7])
				}
				// When the source lacks b's page, writing b's neighbour
				// maps a page taken off the spare list (b's old one,
				// unless m retired several): it must come back zeroed.
				m.Write(b^8, val)
				ref[(b^8)&^7] = val
				if got := m.Read(b); got != ref[b&^7] {
					t.Fatalf("spare page reuse: Read(0x%x) = %d, want %d", b, got, ref[b&^7])
				}
				check("copy after a write", m, ref)
				check("source after writes to its copy", src, srcRef)
				// m now derives from the program image by writes.
				base, baseRef = NewMemory(p), maps.Clone(image)
			case 6:
				// Keep a prefix of the previous buffer (or one marker
				// word when it is empty) and append the delta behind it.
				if len(buf) == 0 {
					buf = append(buf, Word{Addr: a, Val: val})
				}
				keep := 1 + int(ops[2])%len(buf)
				prefix := slices.Clone(buf[:keep])
				d := m.Delta(base, buf[:keep])
				if !slices.Equal(d[:keep], prefix) {
					t.Fatalf("Delta rewrote the buffer's prefix: %v, want %v", d[:keep], prefix)
				}
				checkDelta(d[keep:])
				buf = d
			case 7:
				m.Write(a, val)
				m.Load(p)
				ref = maps.Clone(image)
				check("load", m, ref)
				fresh := NewMemory(p)
				if !slices.Equal(m.order, fresh.order) {
					t.Fatalf("load: pages %v, want %v", m.order, fresh.order)
				}
				if d, e := m.Delta(fresh, nil), fresh.Delta(m, nil); len(d) != 0 || len(e) != 0 {
					t.Fatalf("load: Delta against NewMemory %v and back %v, want both empty", d, e)
				}
				base, baseRef = fresh, maps.Clone(image)
			}
		}
		check("end", m, ref)
	})
}
