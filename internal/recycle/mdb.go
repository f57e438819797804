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
// nothing but the index map's occasional rehash.  Slots outside the
// live window [head, head+n) never hold a valid entry (eviction frees a
// slot only to refill it at once), so StoreTo, Reusable and Len scan
// the whole ring without consulting the window.
//
// The index holds the folded keys of the valid entries.  Distinct
// pairs can fold to one key, so it is a filter, not proof: Reusable
// confirms a hit against the stored pair, and InsertLoad drops a pair
// whose key is already present.
type MDB struct {
	ring  []mdbEntry          // capacity slots; the oldest live entry is ring[head]
	head  int                 // slot of the oldest entry
	n     int                 // entries in the ring, valid or invalidated
	index map[uint64]struct{} // folded (pc,addr) keys of the valid entries
}

type mdbEntry struct {
	pc, addr uint64
	valid    bool
}

func mdbKey(pc, addr uint64) uint64 {
	// pc and addr live in disjoint, low-entropy ranges; a mixed key
	// keeps the map collision-free for realistic traces.
	return pc*0x9E3779B97F4A7C15 ^ addr
}

// Reset empties the buffer and sizes it for capacity (at least one)
// load entries, keeping its ring and index storage.  It returns m.
func (m *MDB) Reset(capacity int) *MDB {
	if capacity < 1 {
		panic("recycle: MDB capacity must be positive")
	}
	if m.index == nil {
		m.index = make(map[uint64]struct{}, capacity)
	}
	clear(m.index)
	m.ring = slices.Grow(m.ring[:0], capacity)[:capacity]
	clear(m.ring)
	m.head, m.n = 0, 0
	return m
}

// InsertLoad records an executed load.  Re-inserting a present (pc,
// addr) is a no-op: the entry keeps its place in the FIFO.
func (m *MDB) InsertLoad(pc, addr uint64) {
	key := mdbKey(pc, addr)
	if _, ok := m.index[key]; ok {
		return
	}
	if m.n == len(m.ring) {
		old := &m.ring[m.head]
		if old.valid {
			m.unindex(old)
		}
		m.head = (m.head + 1) % len(m.ring)
		m.n--
	}
	m.ring[(m.head+m.n)%len(m.ring)] = mdbEntry{pc: pc, addr: addr, valid: true}
	m.n++
	m.index[key] = struct{}{}
}

// unindex drops e's key from the index and marks it invalid.
func (m *MDB) unindex(e *mdbEntry) {
	delete(m.index, mdbKey(e.pc, e.addr))
	e.valid = false
}

// StoreTo invalidates every load entry whose address matches: "If the
// store finds its address in the MDB, the load PC and address are
// removed."
func (m *MDB) StoreTo(addr uint64) {
	for i := range m.ring {
		if e := &m.ring[i]; e.valid && e.addr == addr {
			m.unindex(e)
		}
	}
}

// Reusable reports whether the load at pc with the given address is
// still present, i.e. its old value may be reused.  A key hit is
// confirmed against the stored pair, since another pair may share the
// key.
func (m *MDB) Reusable(pc, addr uint64) bool {
	if _, ok := m.index[mdbKey(pc, addr)]; !ok {
		return false
	}
	for i := range m.ring {
		if e := &m.ring[i]; e.valid && e.pc == pc && e.addr == addr {
			return true
		}
	}
	return false
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
