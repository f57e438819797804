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
//     once, and the Counters expose the proof (DiskHits +
//     FlightShares + Computes accounts for every request).
//
// The store holds simulation *results*, not simulation state, and is
// deliberately dumb about them: the byte-identity guarantee (a record
// read back equals the result of a direct run) rests on Go's JSON
// float round-tripping and is enforced end-to-end by the witness tests
// in internal/jobs.
package store

import (
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

// Record is one cell's persisted result: exactly one of Stats (a
// detailed run, with its telemetry) or Sampled (a sampled estimate) is
// set.
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
// GetOrCompute is exactly one of a disk hit, a single-flight share, or
// a compute.  Corrupt counts records that were found but refused;
// PutErrors counts results that were computed and served but could not
// be persisted.
type Counters struct {
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

	mu     sync.Mutex
	flight map[string]*flightCall

	diskHits     atomic.Uint64
	flightShares atomic.Uint64
	computes     atomic.Uint64
	corrupt      atomic.Uint64
	putErrors    atomic.Uint64
}

// flightCall is one in-progress computation; followers block on done.
type flightCall struct {
	done chan struct{}
	rec  *Record
	err  error
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
	return &Store{dir: dir, flight: make(map[string]*flightCall)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns a snapshot of the accounting counters.
func (s *Store) Counters() Counters {
	return Counters{
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

// Get returns the record stored for key, if a valid one exists.
// Unreadable, unparseable, mis-keyed, or foreign-version records count
// as misses (and bump the Corrupt counter), never errors.
func (s *Store) Get(key string) (*Record, bool) {
	rec, ok, _ := s.get(key)
	return rec, ok
}

// get is Get plus the corrupt verdict, so the traced lookup path can
// attribute a refused record without re-reading the counters.
func (s *Store) get(key string) (rec *Record, ok, corrupt bool) {
	if len(key) < 3 {
		return nil, false, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false, false
	}
	rec, ok = decode(data, key)
	if !ok {
		s.corrupt.Add(1)
		return nil, false, true
	}
	return rec, true, false
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
// the record's Version and Key.
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
	return nil
}

// GetOrCompute returns the record for key, computing and persisting it
// on a miss.  Concurrent callers for the same key are deduplicated:
// exactly one runs compute, the rest block and share its result.
// cached reports whether the caller avoided a compute (disk hit or
// single-flight share).  A compute whose Put fails is still served —
// only durability is lost, and the PutErrors counter records it; a
// compute that itself fails propagates its error to every waiter and
// leaves no record behind.
//
// Every phase the request actually passes through — "lookup" (disk
// read, with hit/corrupt/recheck attributes), "flight-wait" (blocking
// on another caller's in-progress computation), "compute" (the
// caller's compute body, which receives its span handle so it can
// record per-attempt children), and "put" (persisting the fresh
// record) — lands as a distinct span under tc.  With the zero Ctx the
// hit path costs zero extra allocations over Get (witnessed by
// TestTracedHitPathAllocParity).
func (s *Store) GetOrCompute(key string, tc trace.Ctx, compute func(trace.Ctx) (*Record, error)) (rec *Record, cached bool, err error) {
	lk := tc.Start("lookup")
	rec, ok, corrupt := s.get(key)
	if corrupt {
		lk.Uint("corrupt", 1)
	}
	if ok {
		lk.Uint("hit", 1).End()
		s.diskHits.Add(1)
		return rec, true, nil
	}
	lk.End()

	s.mu.Lock()
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
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
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		close(c.done)
	}()

	// Re-check the disk under flight ownership: a previous leader (or
	// another process sharing the directory) may have landed the record
	// between our miss and winning the flight slot.
	lk = tc.Start("lookup").Uint("recheck", 1)
	if rec, ok := s.Get(key); ok {
		lk.Uint("hit", 1).End()
		s.diskHits.Add(1)
		c.rec = rec
		return rec, true, nil
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
