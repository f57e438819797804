// Package store is the durable, content-addressed simulation result
// cache behind the recycled job server: one JSON record per simulation
// cell, addressed by the SHA-256 of the cell's full identity (machine
// config + feature knobs + workload content hash + instruction budget
// + sampling schedule and confidence; see CellKey).
//
// Design points:
//
//   - Writes are atomic (temp file + rename in the same directory), so
//     a crash mid-write can never leave a half record where a key
//     resolves.  Rerunning simply recomputes and overwrites.
//   - Records carry a codec version and echo their own key; Get treats
//     any mismatch — unparseable JSON, foreign version, key/filename
//     disagreement, missing payload — as a miss, never an error, so a
//     corrupted or downgraded store degrades to recomputation instead
//     of failing open or serving wrong bytes.
//   - GetOrCompute deduplicates concurrent computations of one key
//     process-wide (single-flight): with many clients submitting
//     overlapping sweeps, each distinct cell is simulated exactly
//     once, and the Counters expose the proof (MemHits + DiskHits +
//     FlightShares + Computes accounts for every request).
//   - A bounded in-memory tier sits in front of the directory: every
//     record the Store has validated on a read or made durable with
//     Put is kept, up to memBudget encoded bytes, oldest-inserted
//     evicted first, so a hot cell costs neither a file read nor a
//     decode.  Records are shared between callers and read-only.
//
// The store holds simulation *results*, not simulation state, and is
// deliberately dumb about them: the byte-identity guarantee (a record
// read back equals the result of a direct run) rests on Go's JSON
// float round-tripping and is enforced end-to-end by the witness tests
// in internal/jobs.
package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"recyclesim/internal/obs"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
)

// recordVersion is the on-disk codec version.  Bump on any change to
// the Record schema that old readers would misinterpret; readers treat
// foreign versions as misses.
const recordVersion = 1

// memBudget bounds the in-memory tier by the records' encoded size.
// A full `experiments -all` sweep at 200k instructions (552 records,
// 0.53 MiB) and the sampled sweep at 2M (40 records, 2.2 MiB) fit six
// times over.  Sampled records at 2M instructions are the largest, up
// to 57 KiB, since each interval carries a stats.Sim.
const memBudget = 16 << 20

// Record is one cell's persisted result: exactly one of Stats (a
// detailed run, with its telemetry) or Sampled (a sampled estimate) is
// set.  A Record the Store returns is shared with its in-memory tier
// and every other caller of that key: it is read-only, and nothing may
// write through it or the values it points to.
type Record struct {
	Version int    `json:"v"`
	Key     string `json:"key"`

	Stats   *stats.Sim     `json:"stats,omitempty"`
	Metrics *obs.Metrics   `json:"metrics,omitempty"`
	Sampled *sample.Result `json:"sampled,omitempty"`
}

// valid reports whether a decoded record may be served for key.
func (r *Record) valid(key string) bool {
	return r.Version == recordVersion && r.Key == key && (r.Stats != nil || r.Sampled != nil)
}

// Counters is a snapshot of the store's accounting: every successful
// GetOrCompute is exactly one of a memory hit, a disk hit (the record
// was read from the directory), a single-flight share, or a compute.
// Corrupt counts records that were found but refused, once per
// request; PutErrors counts results that were computed and served but
// could not be persisted.
type Counters struct {
	MemHits      uint64 `json:"mem_hits"`
	DiskHits     uint64 `json:"disk_hits"`
	FlightShares uint64 `json:"flight_shares"`
	Computes     uint64 `json:"computes"`
	Corrupt      uint64 `json:"corrupt"`
	PutErrors    uint64 `json:"put_errors"`
}

// Store is a content-addressed record cache over one directory.  All
// methods are safe for concurrent use; separate processes may share a
// directory (atomic renames keep records consistent; only the
// in-process single-flight dedupe does not extend across processes).
type Store struct {
	dir string

	// mu guards the cell table and the FIFO order of the kept cells; it
	// is never held across a file operation or a compute.
	mu    sync.Mutex
	cells map[string]*cell
	order list.List // the kept cells, oldest-inserted first
	bytes int       // encoded size of the kept records

	memHits      atomic.Uint64
	diskHits     atomic.Uint64
	flightShares atomic.Uint64
	computes     atomic.Uint64
	corrupt      atomic.Uint64
	putErrors    atomic.Uint64
}

// cell is one key's entry in the table: either a lookup or compute in
// progress, whose one owner closes done once rec or err is set, or a
// record kept in memory, which alone has a place in the FIFO order.
type cell struct {
	key  string
	done chan struct{}
	rec  *Record
	err  error
	size int           // encoded size of a kept record
	elem *list.Element // place in Store.order; nil until kept
}

// Open creates (if needed) and opens the store rooted at dir.  Opening
// never reads existing records, so a directory full of corruption
// opens fine — damage surfaces as misses, per record, on Get.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, cells: make(map[string]*cell)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns a snapshot of the accounting counters.
func (s *Store) Counters() Counters {
	return Counters{
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		FlightShares: s.flightShares.Load(),
		Computes:     s.computes.Load(),
		Corrupt:      s.corrupt.Load(),
		PutErrors:    s.putErrors.Load(),
	}
}

// path shards records by the first key byte to keep directories small:
// <dir>/<key[:2]>/<key>.json.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the record stored for key, if a valid one exists, from
// memory when it is kept there.  Unreadable, unparseable, mis-keyed, or
// foreign-version records count as misses (and bump the Corrupt
// counter), never errors.  The record is shared and read-only.
func (s *Store) Get(key string) (*Record, bool) {
	s.mu.Lock()
	c := s.cells[key]
	if c != nil && c.elem != nil {
		s.mu.Unlock()
		return c.rec, true
	}
	s.mu.Unlock()
	rec, _ := s.load(key)
	return rec, rec != nil
}

// load reads key's record file and keeps a record decode accepts.  A
// file decode refuses counts Corrupt and reports refused.
func (s *Store) load(key string) (rec *Record, refused bool) {
	if len(key) < 3 {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	rec, ok := decode(data, key)
	if !ok {
		s.corrupt.Add(1)
		return nil, true
	}
	s.keep(key, rec, len(data))
	return rec, false
}

// keep makes rec, whose encoded size is size bytes, key's kept cell in
// place of any record held for key, evicting the oldest-inserted cells
// until it fits within memBudget.  A record larger than the whole
// budget is not kept.  A lookup or compute in progress for key is
// displaced from the table; its owner still settles it for the callers
// waiting on it.
func (s *Store) keep(key string, rec *Record, size int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.cells[key]; c != nil && c.elem != nil {
		s.drop(c)
	}
	if size > memBudget {
		return
	}
	for s.bytes+size > memBudget {
		s.drop(s.order.Front().Value.(*cell))
	}
	c := &cell{key: key, rec: rec, size: size}
	c.elem = s.order.PushBack(c)
	s.cells[key] = c
	s.bytes += size
}

// drop removes one kept cell from memory.  Caller holds s.mu.
func (s *Store) drop(c *cell) {
	s.order.Remove(c.elem)
	delete(s.cells, c.key)
	s.bytes -= c.size
}

// decode parses one on-disk record for key.  Any defect — unparseable
// JSON, foreign codec version, key mismatch, missing payload — is a
// miss (nil, false), never a panic or an error: the store's corruption
// contract lives here, and FuzzStoreDecode hammers it.
func decode(data []byte, key string) (*Record, bool) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil || !r.valid(key) {
		return nil, false
	}
	return &r, true
}

// Put persists rec under key atomically: the record is written to a
// temp file in the destination directory and renamed into place, so a
// reader (or a crash) can never observe a partial record.  Put stamps
// the record's Version and Key, and once the record is durable keeps it
// in memory, where later lookups share it: the caller must not modify
// it afterwards.
func (s *Store) Put(key string, rec *Record) error {
	if len(key) < 3 {
		return fmt.Errorf("store: malformed key %q", key)
	}
	rec.Version = recordVersion
	rec.Key = key
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rename %s: %w", key, err)
	}
	s.keep(key, rec, len(data))
	return nil
}

// GetOrCompute returns the record for key, computing and persisting it
// on a miss.  Concurrent callers for the same key are deduplicated:
// exactly one owns the key, reads the directory once and, on a miss,
// runs compute; the rest block and share its result.  cached reports
// whether the caller avoided a compute (memory or disk hit, or
// single-flight share).  The record is shared with the in-memory tier
// and every other caller of key, so it is read-only.  A compute whose
// Put fails is still served — only durability is lost, the PutErrors
// counter records it, and the record is not kept, so a later request
// computes it again; a compute that itself fails propagates its error
// to every waiter and leaves no record behind.
//
// Every phase the request actually passes through — "lookup" (memory,
// then the owner's directory read, with hit/mem/corrupt attributes),
// "flight-wait" (blocking on another caller's lookup or compute),
// "compute" (the caller's compute body, which receives its span handle
// so it can record per-attempt children), and "put" (persisting the
// fresh record) — lands as a distinct span under tc.  With the zero Ctx
// the hit path costs zero extra allocations over Get (witnessed by
// TestTracedHitPathAllocParity).
func (s *Store) GetOrCompute(key string, tc trace.Ctx, compute func(trace.Ctx) (*Record, error)) (rec *Record, cached bool, err error) {
	lk := tc.Start("lookup")
	s.mu.Lock()
	c := s.cells[key]
	if c != nil && c.elem != nil {
		s.mu.Unlock()
		s.memHits.Add(1)
		lk.Uint("hit", 1).Uint("mem", 1).End()
		return c.rec, true, nil
	}
	if c != nil {
		s.mu.Unlock()
		lk.End()
		fw := tc.Start("flight-wait")
		<-c.done
		if c.err != nil {
			fw.Error(c.err).End()
			return nil, false, c.err
		}
		fw.End()
		s.flightShares.Add(1)
		return c.rec, true, nil
	}
	// Own the key before reading the directory: concurrent requests
	// then share this one read, and a record another process landed
	// before it is a disk hit rather than a second compute.
	c = &cell{key: key, done: make(chan struct{})}
	s.cells[key] = c
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		if s.cells[key] == c {
			delete(s.cells, key)
		}
		s.mu.Unlock()
		close(c.done)
	}()

	rec, refused := s.load(key)
	if rec != nil {
		s.diskHits.Add(1)
		lk.Uint("hit", 1).End()
		c.rec = rec
		return rec, true, nil
	}
	if refused {
		lk.Uint("corrupt", 1)
	}
	lk.End()

	s.computes.Add(1)
	cs := tc.Start("compute")
	rec, err = compute(cs)
	if err != nil {
		cs.Error(err).End()
		c.err = err
		return nil, false, err
	}
	cs.End()
	ps := tc.Start("put")
	if perr := s.Put(key, rec); perr != nil {
		ps.Error(perr)
		s.putErrors.Add(1)
	}
	ps.End()
	c.rec = rec
	return rec, false, nil
}
