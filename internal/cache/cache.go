// Package cache implements the simulated memory hierarchy: banked
// level-one instruction and data caches, a unified on-chip L2, an
// off-chip L3, and main memory.  The caches are timing-only (tag
// arrays): architectural data lives in the functional memory image, so
// the hierarchy's job is to produce access latencies, bank conflicts,
// and miss traffic matching §4.1 of the paper:
//
//	64KB direct-mapped IL1 and DL1, 256KB 4-way L2, 4MB off-chip L3,
//	64-byte lines everywhere, 8-way banked on-chip caches, and
//	conflict-free miss penalties of 6 cycles to L2, another 12 to L3,
//	and another 62 to memory.
package cache

import (
	"fmt"
	"math/bits"
)

// Params configures one cache level.
type Params struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	Banks     int // 0 or 1 disables bank conflict modelling
	HitLat    int // cycles for a hit in this level
}

// Stats counts accesses per cache.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	BankStall uint64 // cycles lost to busy banks
}

type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Cache is a single set-associative, banked, timing-only cache.
type Cache struct {
	p       Params
	sets    int
	lines   []line   // sets*assoc, way-major within a set
	touched []uint64 // bit s set once set s has been filled; clear sets hold zero lines
	bankCyc []uint64 // cycle of the bank's last use
	bankCnt []int    // accesses to the bank in that cycle
	clock   uint64
	Stats   Stats

	// Every size is a power of two, so the per-access index arithmetic
	// is shifts and masks: line address = addr >> lineShift, set = line
	// & setMask, tag = line >> setShift, bank = line & bankMask.
	lineShift, setShift uint
	setMask, bankMask   uint64
}

// New builds a cache from params.  It panics on non-positive geometry,
// and on a line size, set count or bank count that is not a power of
// two, since configurations are static and a bad one is a programming
// error.
func New(p Params) *Cache {
	if p.SizeBytes <= 0 || p.LineBytes <= 0 || p.Assoc <= 0 {
		panic("cache: bad geometry for " + p.Name)
	}
	sets := p.SizeBytes / (p.LineBytes * p.Assoc)
	if sets <= 0 {
		sets = 1
	}
	banks := p.Banks
	if banks <= 0 {
		banks = 1
	}
	if !pow2(p.LineBytes) || !pow2(sets) || !pow2(banks) {
		panic(fmt.Sprintf("cache: %s needs power-of-two line size, set count and bank count (have %d, %d, %d)",
			p.Name, p.LineBytes, sets, banks))
	}
	return &Cache{
		p:         p,
		sets:      sets,
		lines:     make([]line, sets*p.Assoc),
		touched:   make([]uint64, (sets+63)/64),
		bankCyc:   make([]uint64, banks),
		bankCnt:   make([]int, banks),
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		bankMask:  uint64(banks - 1),
	}
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Clone returns a deep copy of the cache: tag array, bank state, and
// statistics.  Sampled simulation snapshots functionally warmed caches
// so parallel measurement intervals each mutate a private copy.
func (c *Cache) Clone() *Cache {
	q := &Cache{}
	q.CopyFrom(c)
	return q
}

// CopyFrom overwrites c with a deep copy of src, reusing c's arrays
// when they are large enough, so a buffer refilled from the same
// geometry allocates nothing.  With the same geometry only the sets
// either cache has ever filled are copied: every other set is all
// invalid zero lines on both sides.  The working sets of the built-in
// workloads leave most of the L3 untouched, so a refill costs a
// fraction of the tag array.
func (c *Cache) CopyFrom(src *Cache) {
	lines, touched, bankCyc, bankCnt := c.lines, c.touched, c.bankCyc, c.bankCnt
	same := c.p == src.p && len(lines) == len(src.lines)
	*c = *src
	if same {
		assoc := src.p.Assoc
		for i, t := range touched {
			for m := t | src.touched[i]; m != 0; {
				// Copy the run of consecutive sets starting at the
				// lowest set bit of m.
				lo := bits.TrailingZeros64(m)
				n := bits.TrailingZeros64(^(m >> lo))
				first, end := (i*64+lo)*assoc, (i*64+lo+n)*assoc
				copy(lines[first:end], src.lines[first:end])
				m &^= (1<<n - 1) << lo
			}
		}
		c.lines = lines
	} else {
		c.lines = append(lines[:0], src.lines...)
	}
	c.touched = append(touched[:0], src.touched...)
	c.bankCyc = append(bankCyc[:0], src.bankCyc...)
	c.bankCnt = append(bankCnt[:0], src.bankCnt...)
}

// Sets returns the number of sets (exported for tests).
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) setAndTag(addr uint64) (int, uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
}

// Lookup probes the cache at cycle `now`.  It returns whether the line
// hit and the extra delay (beyond the level's hit latency) caused by a
// busy bank.  A miss is filled immediately (the caller adds lower-level
// latency); LRU is updated on both hits and fills.
func (c *Cache) Lookup(now uint64, addr uint64) (hit bool, bankDelay uint64) {
	c.Stats.Accesses++
	c.clock++

	// Bank conflict: each bank serves one access per cycle; the k-th
	// same-cycle access to a bank is delayed k cycles.  Delayed
	// accesses are assumed not to re-contend (the conflict window is a
	// cycle, so queues cannot build up across cycles).
	bank := int((addr >> c.lineShift) & c.bankMask)
	if c.bankCyc[bank] != now {
		c.bankCyc[bank] = now
		c.bankCnt[bank] = 0
	}
	bankDelay = uint64(c.bankCnt[bank])
	c.bankCnt[bank]++
	c.Stats.BankStall += bankDelay

	set, tag := c.setAndTag(addr)
	base := set * c.p.Assoc
	for w := 0; w < c.p.Assoc; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			return true, bankDelay
		}
	}
	c.Stats.Misses++
	victim := base
	for w := 0; w < c.p.Assoc; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			victim = base + w
			break
		}
		if ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.lines[victim] = line{valid: true, tag: tag, lru: c.clock}
	c.touched[uint(set)/64] |= 1 << (uint(set) % 64)
	return false, bankDelay
}

// Contains probes without side effects (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.setAndTag(addr)
	base := set * c.p.Assoc
	for w := 0; w < c.p.Assoc; w++ {
		ln := c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// HitLatency returns the level's hit latency in cycles.
func (c *Cache) HitLatency() int { return c.p.HitLat }

// MissRate returns misses/accesses (0 when never accessed).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HierarchyParams configures the full memory system.
type HierarchyParams struct {
	IL1, DL1, L2, L3 Params
	// Additional miss penalties along the chain, per the paper:
	// +MissToL2 on an L1 miss, +MissToL3 on an L2 miss, +MissToMem
	// on an L3 miss.
	MissToL2, MissToL3, MissToMem int
}

// DefaultHierarchy returns the paper's baseline memory system.  The
// small machines halve the cache sizes (§5.3); scale applies that
// division to L1 and L2 capacities.
func DefaultHierarchy(scale int) HierarchyParams {
	if scale <= 0 {
		scale = 1
	}
	return HierarchyParams{
		IL1:       Params{Name: "IL1", SizeBytes: 64 * 1024 / scale, LineBytes: 64, Assoc: 1, Banks: 8, HitLat: 1},
		DL1:       Params{Name: "DL1", SizeBytes: 64 * 1024 / scale, LineBytes: 64, Assoc: 1, Banks: 8, HitLat: 1},
		L2:        Params{Name: "L2", SizeBytes: 256 * 1024 / scale, LineBytes: 64, Assoc: 4, Banks: 8, HitLat: 0},
		L3:        Params{Name: "L3", SizeBytes: 4 * 1024 * 1024, LineBytes: 64, Assoc: 2, Banks: 1, HitLat: 0},
		MissToL2:  6,
		MissToL3:  12,
		MissToMem: 62,
	}
}

// Hierarchy glues the levels together.
type Hierarchy struct {
	p   HierarchyParams
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
	L3  *Cache
}

// NewHierarchy builds the full memory system.
func NewHierarchy(p HierarchyParams) *Hierarchy {
	return &Hierarchy{
		p:   p,
		IL1: New(p.IL1),
		DL1: New(p.DL1),
		L2:  New(p.L2),
		L3:  New(p.L3),
	}
}

// Clone returns a deep copy of the whole hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	q := &Hierarchy{}
	q.CopyFrom(h)
	return q
}

// CopyFrom overwrites h with a deep copy of src, reusing the levels'
// arrays (see Cache.CopyFrom); a nil level gets a fresh cache.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.p = src.p
	copyLevel(&h.IL1, src.IL1)
	copyLevel(&h.DL1, src.DL1)
	copyLevel(&h.L2, src.L2)
	copyLevel(&h.L3, src.L3)
}

func copyLevel(dst **Cache, src *Cache) {
	if *dst == nil {
		*dst = &Cache{}
	}
	(*dst).CopyFrom(src)
}

// fill walks the lower levels after an L1 miss and returns the added
// latency of the miss chain.
func (h *Hierarchy) fill(now uint64, addr uint64) int {
	lat := h.p.MissToL2
	if hit, _ := h.L2.Lookup(now, addr); hit {
		return lat
	}
	lat += h.p.MissToL3
	if hit, _ := h.L3.Lookup(now, addr); hit {
		return lat
	}
	return lat + h.p.MissToMem
}

// AccessI fetches the instruction cache line containing addr at cycle
// `now` and returns the total access latency in cycles plus whether the
// L1 hit (a miss stalls the thread's fetch; a bank-delayed hit only
// delays delivery).
func (h *Hierarchy) AccessI(now uint64, addr uint64) (int, bool) {
	hit, bank := h.IL1.Lookup(now, addr)
	lat := h.IL1.HitLatency() + int(bank)
	if !hit {
		lat += h.fill(now, addr)
	}
	return lat, hit
}

// AccessD performs a data access (load or store) and returns the total
// latency in cycles.  Stores are modelled with the same tag behaviour
// (write-allocate) as loads.
func (h *Hierarchy) AccessD(now uint64, addr uint64) int {
	hit, bank := h.DL1.Lookup(now, addr)
	lat := h.DL1.HitLatency() + int(bank)
	if !hit {
		lat += h.fill(now, addr)
	}
	return lat
}
