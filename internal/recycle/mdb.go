package recycle

import "slices"

// MDB is the Memory Disambiguation Buffer of §3.5: it records (load PC,
// effective address) pairs when loads execute.  A store to a matching
// address removes the pairs for that address.  At recycle time a load
// may reuse its old value only if its pair is still present, proving no
// intervening store touched the address.
//
// The buffer has finite capacity with FIFO replacement; evicting an
// entry merely forfeits a reuse opportunity (never correctness).
// Addresses are tagged with the address-space identifier by the caller,
// so programs sharing the machine never alias.
//
// The FIFO is a fixed ring: inserting and evicting move head and n, and
// nothing is ever resliced or appended, so a buffer in use allocates
// nothing.  Slots outside the live window [head, head+n) never hold a
// valid entry (eviction frees a slot only to refill it at once), so Len
// scans the whole ring without consulting the window.
//
// Two tables index the valid entries, both sized by Reset:
//
//   - keys is the exact set of their folded (pc, addr) keys, open
//     addressed with linear probing and backward-shift deletion, each
//     key with the ring slot of its entry.  Distinct pairs can fold to
//     one key, so InsertLoad drops a pair whose key is already present,
//     which keeps every valid entry's key distinct; Reusable then
//     confirms a key hit against that one entry's pair.
//   - buckets chains them by address bucket, each bucket a doubly
//     linked list through the ring slots, so StoreTo visits only the
//     valid entries whose address shares the store's bucket instead of
//     scanning the ring.
type MDB struct {
	ring    []mdbEntry // capacity slots; the oldest live entry is ring[head]
	head    int        // slot of the oldest entry
	n       int        // entries in the ring, valid or invalidated
	keys    []keySlot  // power-of-two open-addressed key set
	buckets []int32    // first valid entry's slot per address bucket (power of two), -1 if none
}

type mdbEntry struct {
	pc, addr   uint64
	prev, next int32 // neighbours in the address bucket's chain, -1 at its ends
	valid      bool
}

// keySlot is one slot of the key set: a folded key and its entry's ring
// slot plus one (zero marks an empty slot).
type keySlot struct {
	key  uint64
	slot int32
}

func mdbKey(pc, addr uint64) uint64 {
	// pc and addr live in disjoint, low-entropy ranges; a mixed key
	// keeps the set collision-free for realistic traces.
	return pc*0x9E3779B97F4A7C15 ^ addr
}

// Reset empties the buffer and sizes it for capacity (at least one)
// load entries, keeping its tables' storage.  It returns m.
func (m *MDB) Reset(capacity int) *MDB {
	if capacity < 1 {
		panic("recycle: MDB capacity must be positive")
	}
	m.ring = resize(m.ring, capacity)
	m.keys = resize(m.keys, pow2(2*capacity))
	m.buckets = resize(m.buckets, pow2(4*capacity))
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	m.head, m.n = 0, 0
	return m
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// home is key's first probe position in the key set.
func (m *MDB) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> 32 & uint64(len(m.keys)-1))
}

// find returns key's position in the key set and whether it is there;
// when it is not, the position is the empty slot that ends its probe.
func (m *MDB) find(key uint64) (int, bool) {
	mask := len(m.keys) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		k := &m.keys[i]
		if k.slot == 0 {
			return i, false
		}
		if k.key == key {
			return i, true
		}
	}
}

// bucket is addr's chain head in buckets (addresses are word-aligned).
func (m *MDB) bucket(addr uint64) *int32 {
	return &m.buckets[(addr>>3)&uint64(len(m.buckets)-1)]
}

// InsertLoad records an executed load.  Re-inserting a present (pc,
// addr) is a no-op: the entry keeps its place in the FIFO.
func (m *MDB) InsertLoad(pc, addr uint64) {
	key := mdbKey(pc, addr)
	i, ok := m.find(key)
	if ok {
		return
	}
	if m.n == len(m.ring) {
		if old := &m.ring[m.head]; old.valid {
			m.unindex(old)
			i, _ = m.find(key) // the deletion may have moved the probe's end
		}
		// The ring wraps by compare, not %: a division per load
		// completion is measurable.
		if m.head++; m.head == len(m.ring) {
			m.head = 0
		}
		m.n--
	}
	slot := int32(m.head + m.n)
	if int(slot) >= len(m.ring) {
		slot -= int32(len(m.ring))
	}
	m.n++
	m.keys[i] = keySlot{key: key, slot: slot + 1}
	first := m.bucket(addr)
	if *first >= 0 {
		m.ring[*first].prev = slot
	}
	m.ring[slot] = mdbEntry{pc: pc, addr: addr, prev: -1, next: *first, valid: true}
	*first = slot
}

// unindex drops e's key from the key set and e from its bucket's
// chain, and marks it invalid.
func (m *MDB) unindex(e *mdbEntry) {
	i, _ := m.find(mdbKey(e.pc, e.addr))
	m.deleteAt(i)
	if e.prev >= 0 {
		m.ring[e.prev].next = e.next
	} else {
		*m.bucket(e.addr) = e.next
	}
	if e.next >= 0 {
		m.ring[e.next].prev = e.prev
	}
	e.valid = false
}

// deleteAt empties key-set position i and shifts later members of its
// probe run back, so every remaining key stays reachable from its home
// without tombstones.
func (m *MDB) deleteAt(i int) {
	mask := len(m.keys) - 1
	for j := i; ; {
		m.keys[i] = keySlot{}
		for {
			j = (j + 1) & mask
			if m.keys[j].slot == 0 {
				return
			}
			// The key at j stays unless its home lies cyclically
			// outside (i, j], that is, unless its probe passed i.
			h := m.home(m.keys[j].key)
			if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
				break
			}
		}
		m.keys[i] = m.keys[j]
		i = j
	}
}

// StoreTo invalidates every load entry whose address matches: "If the
// store finds its address in the MDB, the load PC and address are
// removed."
func (m *MDB) StoreTo(addr uint64) {
	for s := *m.bucket(addr); s >= 0; {
		e := &m.ring[s]
		s = e.next
		if e.addr == addr {
			m.unindex(e)
		}
	}
}

// Reusable reports whether the load at pc with the given address is
// still present, i.e. its old value may be reused.  A key hit is
// confirmed against its entry's pair, since another pair may share the
// key.
func (m *MDB) Reusable(pc, addr uint64) bool {
	i, ok := m.find(mdbKey(pc, addr))
	if !ok {
		return false
	}
	e := &m.ring[m.keys[i].slot-1]
	return e.pc == pc && e.addr == addr
}

// Len returns the number of live entries (tests).
func (m *MDB) Len() int {
	n := 0
	for _, e := range m.ring {
		if e.valid {
			n++
		}
	}
	return n
}
