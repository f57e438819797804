package cache

import (
	"math/bits"
	"reflect"
	"testing"
)

// refCache is the dense tag store the paged one replaced, kept as the
// fuzz oracle: every set's lines are allocated up front, and each line
// carries an explicit valid bit instead of treating lru 0 as invalid.
type refCache struct {
	assoc               int
	lineShift, setShift uint
	setMask, bankMask   uint64
	lines               []refLine
	bankCyc             []uint64
	bankCnt             []int
	clock               uint64
	stats               Stats
}

type refLine struct {
	valid    bool
	tag, lru uint64
}

func newRefCache(p Params) *refCache {
	sets, banks := p.SizeBytes/(p.LineBytes*p.Assoc), max(p.Banks, 1)
	return &refCache{
		assoc:     p.Assoc,
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		bankMask:  uint64(banks - 1),
		lines:     make([]refLine, sets*p.Assoc),
		bankCyc:   make([]uint64, banks),
		bankCnt:   make([]int, banks),
	}
}

func (r *refCache) ways(addr uint64) ([]refLine, uint64) {
	lineAddr := addr >> r.lineShift
	base := int(lineAddr&r.setMask) * r.assoc
	return r.lines[base : base+r.assoc], lineAddr >> r.setShift
}

func (r *refCache) lookup(now, addr uint64) (bool, uint64) {
	r.stats.Accesses++
	r.clock++
	bank := (addr >> r.lineShift) & r.bankMask
	if r.bankCyc[bank] != now {
		r.bankCyc[bank], r.bankCnt[bank] = now, 0
	}
	delay := uint64(r.bankCnt[bank])
	r.bankCnt[bank]++
	r.stats.BankStall += delay

	ways, tag := r.ways(addr)
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = r.clock
			return true, delay
		}
	}
	r.stats.Misses++
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	ways[victim] = refLine{valid: true, tag: tag, lru: r.clock}
	return false, delay
}

func (r *refCache) contains(addr uint64) bool {
	ways, tag := r.ways(addr)
	for _, ln := range ways {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// droppedLines returns an address of every valid line dst holds in a
// page src lacks: the lines a dst.CopyFrom(src) drops with their pages.
func droppedLines(dst, src *Cache) []uint64 {
	var addrs []uint64
	for pi, pg := range dst.pages {
		if pg == nil || src.pages[pi] != nil {
			continue
		}
		for k, ln := range pg {
			if ln.lru != 0 {
				set := uint64(pi)<<pageShift + uint64(k/dst.p.Assoc)
				addrs = append(addrs, (ln.tag<<dst.setShift|set)<<dst.lineShift)
			}
		}
	}
	return addrs
}

// fuzzParams decodes a power-of-two geometry from geom: bits 0-1 give
// the associativity (1 to 8), bits 2-5 the set count (1 to 2,048, four
// tag pages), bits 6-7 the line size (8 to 64 bytes) and bits 8-9 the
// banks (none, 2, 4 or 8).  Bits 10-13 give the address scale: the
// shift applied to each access's 16-bit address, so streams reach
// every set and page and, at small shifts, hit within a line.
func fuzzParams(geom uint16) (p Params, addrShift uint) {
	assoc := 1 << (geom & 3)
	sets := 1 << ((geom >> 2 & 15) % 12)
	line := 8 << (geom >> 6 & 3)
	p = Params{Name: "fuzz", SizeBytes: sets * assoc * line, LineBytes: line, Assoc: assoc, Banks: [...]int{0, 2, 4, 8}[geom>>8&3]}
	return p, uint(geom >> 10 & 15)
}

// FuzzCacheLookup drives the paged cache and the dense reference with
// the same access stream, three bytes an access: a cycle step of 0 to
// 3 (0 keeps the cycle, so banks conflict) and a 16-bit address scaled
// by the geometry's shift.  After every access the hit, bank delay,
// Stats and Contains on this and the previous address must agree.
// Midway, a cache of the same geometry trained on a disjoint stream
// takes a CopyFrom of the one under test, must equal a CopyFrom into a
// zero Cache apart from the spare pages (sameState), and carries on as the cache under
// test; the source must stay as it was.  Right after the copy, every
// line the destination held in a page the copy dropped is looked up
// again, so a spare page refilled with its stale lines shows up as a
// hit the reference does not make.  Three quarters of the way, the
// cache under test is Reset to a second geometry, geom2 (the same one
// or another, with its own address scale), must equal a zero Cache
// Reset to that geometry apart from the spare pages, and must match a fresh
// reference of it from cold.  Streams are cut to 4,096 accesses to
// keep one run cheap.
func FuzzCacheLookup(f *testing.F) {
	// Geometries read, left to right: shift, banks, line, sets, ways.
	f.Add(uint16(0b0000_00_01_0011_01), uint16(0b0000_00_01_0011_01), []byte{1, 0, 0, 0, 8, 0, 0, 16, 0, 1, 0, 0, 0, 24, 0, 1, 8, 0})
	f.Add(uint16(0b0110_11_00_1011_00), uint16(0b0011_01_10_0101_10), []byte{1, 1, 0, 0, 1, 2, 1, 0, 128, 1, 1, 0, 2, 0, 64, 0, 1, 0})
	f.Add(uint16(0b0000_10_11_0011_11), uint16(0b0000_10_11_1011_11), []byte{1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 0, 1, 6, 0, 1, 7, 0, 1, 8, 0, 1, 0, 0})
	f.Add(uint16(0b1001_01_10_1010_10), uint16(0b1001_01_10_1001_10), []byte{0, 0, 0, 0, 0, 2, 0, 0, 4, 3, 0, 6, 0, 0, 2, 2, 255, 255, 0, 0, 0})
	// One-line pages to 512-line ones: the spare page the Reset makes
	// is too small for the second geometry.
	f.Add(uint16(0), uint16(0b0000_00_00_1010_00), []byte{1, 0, 0, 1, 8, 0, 1, 16, 0, 1, 0, 0, 1, 8, 0, 1, 0, 0, 1, 0, 1, 1, 8, 1})
	f.Fuzz(func(t *testing.T, geom, geom2 uint16, stream []byte) {
		stream = stream[:min(len(stream), 3*4096)/3*3]
		p, addrShift := fuzzParams(geom)
		c, ref := new(Cache).Reset(p), newRefCache(p)
		access := func(i int) (step, addr uint64) {
			return uint64(stream[3*i] & 3), (uint64(stream[3*i+1]) | uint64(stream[3*i+2])<<8) << addrShift
		}
		n := len(stream) / 3
		var src, srcClone *Cache
		now, prev := uint64(1), uint64(0)
		for i := 0; i < n; i++ {
			if i == n/2 {
				dst := new(Cache).Reset(p)
				for j, at := 0, uint64(1); j < n; j++ {
					step, addr := access(j)
					at += step
					dst.Lookup(at, addr^0x5555<<addrShift)
				}
				dropped := droppedLines(dst, c)
				dst.CopyFrom(c)
				srcClone = &Cache{}
				srcClone.CopyFrom(c)
				if !sameState(dst, srcClone) {
					t.Fatalf("access %d: CopyFrom over a cache trained on another stream differs from one into a zero Cache", i)
				}
				src, c = c, dst
				for _, a := range dropped {
					hit, delay := c.Lookup(now, a)
					wantHit, wantDelay := ref.lookup(now, a)
					if hit != wantHit || delay != wantDelay {
						t.Fatalf("access %d: dropped line 0x%x: hit %v delay %d, want %v %d", i, a, hit, delay, wantHit, wantDelay)
					}
				}
			}
			if i == 3*n/4 {
				p, addrShift = fuzzParams(geom2)
				c.Reset(p)
				if !sameState(c, new(Cache).Reset(p)) {
					t.Fatalf("access %d: a cache Reset to %+v differs from a zero Cache Reset to it", i, p)
				}
				ref = newRefCache(p)
			}
			step, addr := access(i)
			now += step
			hit, delay := c.Lookup(now, addr)
			wantHit, wantDelay := ref.lookup(now, addr)
			if hit != wantHit || delay != wantDelay {
				t.Fatalf("access %d (cycle %d, 0x%x): hit %v delay %d, want %v %d", i, now, addr, hit, delay, wantHit, wantDelay)
			}
			if c.Stats != ref.stats {
				t.Fatalf("access %d: stats %+v, want %+v", i, c.Stats, ref.stats)
			}
			for _, a := range []uint64{addr, prev} {
				if got, want := c.Contains(a), ref.contains(a); got != want {
					t.Fatalf("access %d: Contains(0x%x) = %v, want %v", i, a, got, want)
				}
			}
			prev = addr
		}
		if src != nil && !reflect.DeepEqual(src, srcClone) {
			t.Fatal("training a copy changed its source")
		}
	})
}
