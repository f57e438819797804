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
//
// A cache's tags live in pages of 512 sets, each allocated when a set
// in it is first filled.  The built-in workloads fill under 2% of the
// L3's sets in a million instructions, so a core or a sampled model
// copy holds a few of the L3's 64 pages rather than all 1 MB of it.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
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

// line is one way of a set.  The access clock advances before it
// stamps a line, so a valid line has lru >= 1 and the zero line is
// invalid.
type line struct {
	tag uint64
	lru uint64 // clock of the last access
}

// pageShift sizes a tag page at 1<<pageShift sets (the whole cache when
// it has fewer).  With 512 sets an L1 or the L2 holds two pages and the
// L3 64 pages of 16 KB.  Much smaller pages make first fills frequent
// enough to show in the cycle loop's steady-state allocation budget.
const pageShift = 9

// Cache is a single set-associative, banked, timing-only cache.
type Cache struct {
	p       Params
	sets    int
	pages   [][]line // page i holds sets i<<pageShift on, assoc ways each; nil until one is filled
	spare   [][]line // pages CopyFrom and Reset dropped, reused by first fills before allocating
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

// geometry returns p's set and bank counts.  It fails on
// non-positive geometry, on a size below one full set, and on a line
// size, set count or bank count that is not a power of two.
func (p Params) geometry() (sets, banks int, err error) {
	if p.SizeBytes <= 0 || p.LineBytes <= 0 || p.Assoc <= 0 {
		return 0, 0, fmt.Errorf("cache: bad geometry for %s", p.Name)
	}
	sets = p.SizeBytes / (p.LineBytes * p.Assoc)
	if sets == 0 {
		return 0, 0, fmt.Errorf("cache: %s holds %d bytes, less than one set of %d %d-byte lines",
			p.Name, p.SizeBytes, p.Assoc, p.LineBytes)
	}
	banks = max(p.Banks, 1)
	if !pow2(p.LineBytes) || !pow2(sets) || !pow2(banks) {
		return 0, 0, fmt.Errorf("cache: %s needs power-of-two line size, set count and bank count (have %d, %d, %d)",
			p.Name, p.LineBytes, sets, banks)
	}
	return sets, banks, nil
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CopyFrom overwrites c with a deep copy of src, reusing c's arrays
// and tag pages: a page both hold is copied in place, one only src
// holds takes a spare page if c has one, and one only c holds moves to
// c's spare list (a page src lacks is all invalid lines).  A buffer
// refilled from the same geometry allocates only the pages src holds
// beyond those c holds and keeps spare.  src is only read.
func (c *Cache) CopyFrom(src *Cache) {
	pages, spare, bankCyc, bankCnt := c.pages, c.spare, c.bankCyc, c.bankCnt
	if c.pageLen() != src.pageLen() {
		// Another geometry: none of c's pages fits src's.
		pages, spare = nil, nil
	}
	*c = *src
	c.pages = slices.Grow(pages[:0], len(src.pages))[:len(src.pages)]
	c.spare = spare
	for i, pg := range src.pages {
		switch own := c.pages[i]; {
		case pg == nil:
			if own != nil {
				c.spare = append(c.spare, own)
				c.pages[i] = nil
			}
		case own == nil:
			c.pages[i] = append(c.newPage()[:0], pg...)
		default:
			copy(own, pg)
		}
	}
	c.bankCyc = append(bankCyc[:0], src.bankCyc...)
	c.bankCnt = append(bankCnt[:0], src.bankCnt...)
}

// Reset sizes c for p and empties it: every line invalid, the banks
// idle, the clock and statistics zero.  It moves the tag pages c holds
// to the spare list, so a cache reset between runs allocates none of
// them again; spare pages of another page size than p's are dropped.
// It returns c.  It panics on a geometry that HierarchyParams.Validate
// would reject, since configurations are static and a bad one is a
// programming error.
func (c *Cache) Reset(p Params) *Cache {
	sets, banks, err := p.geometry()
	if err != nil {
		panic(err)
	}
	pages, spare := c.pages[:cap(c.pages)], c.spare
	for i, pg := range pages {
		if pg != nil {
			spare = append(spare, pg)
			pages[i] = nil
		}
	}
	n := (sets + 1<<pageShift - 1) >> pageShift
	*c = Cache{
		p:         p,
		sets:      sets,
		pages:     slices.Grow(pages[:0], n)[:n],
		bankCyc:   slices.Grow(c.bankCyc[:0], banks)[:banks],
		bankCnt:   slices.Grow(c.bankCnt[:0], banks)[:banks],
		lineShift: uint(bits.TrailingZeros(uint(p.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		bankMask:  uint64(banks - 1),
	}
	if len(spare) > 0 && len(spare[0]) == c.pageLen() {
		c.spare = spare
	}
	clear(c.bankCyc)
	clear(c.bankCnt)
	return c
}

// pageLen returns the number of lines in one of c's tag pages.
func (c *Cache) pageLen() int { return min(c.sets, 1<<pageShift) * c.p.Assoc }

// newPage returns a tag page of invalid lines: a spare one, cleared,
// or a new one.
func (c *Cache) newPage() []line {
	if n := len(c.spare); n > 0 {
		pg := c.spare[n-1]
		c.spare = c.spare[:n-1]
		clear(pg)
		return pg
	}
	return make([]line, c.pageLen())
}

// LineShift returns log2 of the line size: addresses addr and a share
// a line exactly when addr>>LineShift() == a>>LineShift().
func (c *Cache) LineShift() uint { return c.lineShift }

// Sets returns the number of sets (exported for tests).
func (c *Cache) Sets() int { return c.sets }

// locate returns the index of the page holding addr's set, the index
// of the set's first way in that page, and addr's tag.
func (c *Cache) locate(addr uint64) (page, base int, tag uint64) {
	lineAddr := addr >> c.lineShift
	set := int(lineAddr & c.setMask)
	return set >> pageShift, (set & (1<<pageShift - 1)) * c.p.Assoc, lineAddr >> c.setShift
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

	page, base, tag := c.locate(addr)
	pg := c.pages[page]
	if pg == nil {
		// The set's first fill: every line in an absent page is invalid.
		pg = c.newPage()
		c.pages[page] = pg
	}
	ways := pg[base : base+c.p.Assoc]
	for w := range ways {
		if ways[w].tag == tag && ways[w].lru != 0 {
			ways[w].lru = c.clock
			return true, bankDelay
		}
	}
	c.Stats.Misses++
	// The least recently used way is the first invalid one if any is:
	// only invalid lines have lru 0.
	victim := 0
	for w := range ways {
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	ways[victim] = line{tag: tag, lru: c.clock}
	return false, bankDelay
}

// Contains probes without side effects (for tests).
func (c *Cache) Contains(addr uint64) bool {
	page, base, tag := c.locate(addr)
	pg := c.pages[page]
	if pg == nil {
		return false
	}
	for _, ln := range pg[base : base+c.p.Assoc] {
		if ln.tag == tag && ln.lru != 0 {
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

// Validate reports why Hierarchy.Reset would refuse p: a level whose
// geometry Cache.Reset rejects.
func (p HierarchyParams) Validate() error {
	for _, lp := range []Params{p.IL1, p.DL1, p.L2, p.L3} {
		if _, _, err := lp.geometry(); err != nil {
			return err
		}
	}
	return nil
}

// Hierarchy glues the levels together.
type Hierarchy struct {
	p   HierarchyParams
	IL1 *Cache
	DL1 *Cache
	L2  *Cache
	L3  *Cache
}

// CopyFrom overwrites h with a deep copy of src, reusing the levels'
// arrays (see Cache.CopyFrom); a nil level gets a fresh cache.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.p = src.p
	level(&h.IL1).CopyFrom(src.IL1)
	level(&h.DL1).CopyFrom(src.DL1)
	level(&h.L2).CopyFrom(src.L2)
	level(&h.L3).CopyFrom(src.L3)
}

// Reset sizes h for p and empties every level in place (see
// Cache.Reset); a nil level gets a fresh cache.  It returns h.
func (h *Hierarchy) Reset(p HierarchyParams) *Hierarchy {
	h.p = p
	level(&h.IL1).Reset(p.IL1)
	level(&h.DL1).Reset(p.DL1)
	level(&h.L2).Reset(p.L2)
	level(&h.L3).Reset(p.L3)
	return h
}

// level returns *c, building an empty cache there first when it is nil.
func level(c **Cache) *Cache {
	if *c == nil {
		*c = &Cache{}
	}
	return *c
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
