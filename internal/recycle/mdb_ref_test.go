package recycle

import (
	"slices"
	"testing"
)

// mapMDB is the buffer as it was with a Go map for its key index and a
// full ring scan on every store: the reference the open-addressed key
// set and the bucket counts must agree with on every answer.
type mapMDB struct {
	ring  []mdbEntry
	head  int
	n     int
	index map[uint64]struct{}
}

func newMapMDB(capacity int) *mapMDB {
	return &mapMDB{ring: make([]mdbEntry, capacity), index: map[uint64]struct{}{}}
}

func (m *mapMDB) InsertLoad(pc, addr uint64) {
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

func (m *mapMDB) unindex(e *mdbEntry) {
	delete(m.index, mdbKey(e.pc, e.addr))
	e.valid = false
}

func (m *mapMDB) StoreTo(addr uint64) {
	for i := range m.ring {
		if e := &m.ring[i]; e.valid && e.addr == addr {
			m.unindex(e)
		}
	}
}

func (m *mapMDB) Reusable(pc, addr uint64) bool {
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

func (m *mapMDB) Len() int {
	n := 0
	for _, e := range m.ring {
		if e.valid {
			n++
		}
	}
	return n
}

// The MDB agrees with the map-based reference under random
// InsertLoad/StoreTo/Reusable sequences over a few capacities.  A third
// of the loads are built to fold to the key of a pair already in play,
// so drop-on-collision and the confirm step run often, and few PCs and
// addresses keep the probe runs of the key set long and the bucket
// counts non-zero.  Every Reusable answer and every Len must match.
func TestMDBMatchesMapReference(t *testing.T) {
	const k = 0x9E3779B97F4A7C15 // mdbKey's multiplier
	for _, capacity := range []int{1, 3, 8, 64} {
		m, ref := new(MDB).Reset(capacity), newMapMDB(capacity)
		x := uint64(capacity)
		rnd := func(n uint64) uint64 { // a fixed LCG stream: reproducible
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33 % n
		}
		var pairs [][2]uint64 // pairs loaded so far, collision sources
		pair := func() (uint64, uint64) {
			if len(pairs) > 0 && rnd(3) == 0 {
				p := pairs[rnd(uint64(len(pairs)))]
				pc := 0x1000 + 4*rnd(32)
				return pc, p[0]*k ^ p[1] ^ pc*k // folds to p's key
			}
			return 0x1000 + 4*rnd(32), 0x8000 + 8*rnd(24)
		}
		for op := 0; op < 20_000; op++ {
			switch rnd(4) {
			case 0:
				var addr uint64
				if len(pairs) > 0 && rnd(2) == 0 {
					addr = pairs[rnd(uint64(len(pairs)))][1]
				} else {
					_, addr = pair()
				}
				m.StoreTo(addr)
				ref.StoreTo(addr)
			case 1:
				pc, addr := pair()
				if len(pairs) > 0 && rnd(2) == 0 {
					p := pairs[rnd(uint64(len(pairs)))]
					pc, addr = p[0], p[1]
				}
				if got, want := m.Reusable(pc, addr), ref.Reusable(pc, addr); got != want {
					t.Fatalf("capacity %d op %d: Reusable(%#x, %#x) = %v, reference %v", capacity, op, pc, addr, got, want)
				}
			default:
				pc, addr := pair()
				m.InsertLoad(pc, addr)
				ref.InsertLoad(pc, addr)
				if !slices.Contains(pairs, [2]uint64{pc, addr}) {
					pairs = append(pairs, [2]uint64{pc, addr})
				}
			}
			if got, want := m.Len(), ref.Len(); got != want {
				t.Fatalf("capacity %d op %d: Len %d, reference %d", capacity, op, got, want)
			}
		}
		for _, p := range pairs {
			if got, want := m.Reusable(p[0], p[1]), ref.Reusable(p[0], p[1]); got != want {
				t.Fatalf("capacity %d end: Reusable(%#x, %#x) = %v, reference %v", capacity, p[0], p[1], got, want)
			}
		}
	}
}
