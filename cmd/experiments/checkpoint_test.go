package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/store"
)

// storeRunner builds a runner over the store at dir with the given
// cells already collected.
func storeRunner(t *testing.T, dir string, specs ...fleet.Spec) *runner {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner()
	r.store = st
	r.specs = specs
	return r
}

// snapshotDir maps every file under dir to its contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func sameDir(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

var roundTripCells = []fleet.Spec{
	{Machine: config.Big216(), Features: config.RECRSRU, Workloads: []string{"compress"}, Insts: 2_000},
	{Machine: config.Big18(), Features: config.TME, Workloads: []string{"li"}, Insts: 2_000},
	{Machine: config.Big216(), Features: config.RECRS, Workloads: []string{"gcc"}, Insts: 8_000,
		Sampling: &store.Sampling{Period: 2_000, IntervalLen: 200, WarmupLen: 200, Confidence: 0.99}},
}

// recordJSON renders a cell's replayed record for byte comparison.
func recordJSON(t *testing.T, r *runner, i int) string {
	t.Helper()
	b, err := json.Marshal(r.recs[i])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointRoundTrip: detailed and sampled cells stored by one
// sweep are restored by the next — statistics, telemetry with its
// histograms, and the sampled estimate all byte-identical — and no
// cell is simulated twice.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	first := storeRunner(t, dir, roundTripCells...)
	first.computeAll(context.Background(), 2)
	if n := first.nComputed.Load(); n != int64(len(roundTripCells)) {
		t.Fatalf("first sweep computed %d cells, want %d (errors %v)", n, len(roundTripCells), first.errs)
	}
	if !first.recs[0].Metrics.Hists {
		t.Error("local cells must record histograms, as service cells do")
	}
	second := storeRunner(t, dir, roundTripCells...)
	second.computeAll(context.Background(), 2)
	if c, r := second.nComputed.Load(), second.nRestored.Load(); c != 0 || r != int64(len(roundTripCells)) {
		t.Fatalf("second sweep computed %d and restored %d cells, want 0 and %d", c, r, len(roundTripCells))
	}
	for i := range roundTripCells {
		if a, b := recordJSON(t, first, i), recordJSON(t, second, i); a != b {
			t.Errorf("cell %d: restored record differs from computed:\n %.300s\n %.300s", i, a, b)
		}
	}
}

// TestCheckpointTornFinalLine: a kill mid-write leaves at worst a stray
// temp file (records land by atomic rename) or, on a damaged disk, a
// truncated record.  The next sweep keeps every intact record,
// recomputes only the torn one, and prints the same results.
func TestCheckpointTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	first := storeRunner(t, dir, roundTripCells...)
	first.computeAll(context.Background(), 2)
	key, err := roundTripCells[1].Key()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, data[:len(data)/2], 0o644)
	os.WriteFile(filepath.Join(dir, key[:2], key+".tmp123"), data[:10], 0o644)

	second := storeRunner(t, dir, roundTripCells...)
	second.computeAll(context.Background(), 2)
	if c, r := second.nComputed.Load(), second.nRestored.Load(); c != 1 || r != int64(len(roundTripCells)-1) {
		t.Errorf("computed %d, restored %d; want only the torn cell recomputed", c, r)
	}
	for i := range roundTripCells {
		if a, b := recordJSON(t, first, i), recordJSON(t, second, i); a != b {
			t.Errorf("cell %d differs after recovery", i)
		}
	}
	if rec, ok := second.store.Get(key); !ok || rec.Stats == nil {
		t.Error("torn record was not rewritten")
	}
}

// poisonedRunner builds a runner whose middle cell names a workload
// that does not exist, so it fails at program construction.
func poisonedRunner(keepGoing bool) *runner {
	r := newRunner()
	r.keepGoing = keepGoing
	cell := func(names ...string) fleet.Spec {
		return fleet.Spec{Machine: config.Big216(), Features: config.SMT, Workloads: names, Insts: 2_000}
	}
	r.specs = []fleet.Spec{cell("compress"), cell("nonesuch"), cell("li")}
	return r
}

// TestComputeAllKeepGoing: with -keep-going the poisoned cell records
// its error and zero stats while every healthy cell still completes.
func TestComputeAllKeepGoing(t *testing.T) {
	r := poisonedRunner(true)
	r.computeAll(context.Background(), 2)
	if r.errs[1] == nil {
		t.Fatal("poisoned cell recorded no error")
	}
	if r.recs[1] == nil || r.recs[1].Stats.Committed != 0 {
		t.Error("poisoned cell must print as zeros")
	}
	for _, i := range []int{0, 2} {
		if r.errs[i] != nil {
			t.Errorf("healthy cell %d failed: %v", i, r.errs[i])
		}
		if r.recs[i].Stats.Committed < 2_000 {
			t.Errorf("healthy cell %d committed %d", i, r.recs[i].Stats.Committed)
		}
	}
	failed := r.failedCells()
	if len(failed) != 1 || !strings.Contains(failed[0], "nonesuch") {
		t.Errorf("failure summary %q", failed)
	}
}

// TestComputeAllFailFast: without -keep-going the first failure
// cancels the remaining cells (serial pool makes the order exact; the
// budgets are large enough that every cell crosses the poll cadence).
func TestComputeAllFailFast(t *testing.T) {
	r := poisonedRunner(false)
	r.specs[0], r.specs[1] = r.specs[1], r.specs[0] // poison first
	for i := range r.specs {
		r.specs[i].Insts = 100_000
	}
	r.computeAll(context.Background(), 1)
	if r.errs[0] == nil {
		t.Fatal("poisoned cell recorded no error")
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(r.errs[i], recyclesim.ErrCanceled) {
			t.Errorf("cell %d after failure: err %v, want ErrCanceled", i, r.errs[i])
		}
	}
}

// TestComputeAllRestoresFromCheckpoint: a second sweep over the same
// cells must restore every result from the store without simulating,
// leave the store directory unchanged (same files, same bytes), and
// replay byte-identical statistics.
func TestComputeAllRestoresFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cells := roundTripCells[:2]
	first := storeRunner(t, dir, cells...)
	first.computeAll(context.Background(), 2)
	before := snapshotDir(t, dir)
	second := storeRunner(t, dir, cells...)
	second.computeAll(context.Background(), 2)
	if second.nComputed.Load() != 0 || second.store.Counters().Computes != 0 {
		t.Errorf("resumed sweep simulated %d cells", second.nComputed.Load())
	}
	if !sameDir(before, snapshotDir(t, dir)) {
		t.Error("resumed sweep modified a complete store")
	}
	for i := range cells {
		a := fmt.Sprintf("%+v", *first.recs[i].Stats)
		b := fmt.Sprintf("%+v", *second.recs[i].Stats)
		if a != b {
			t.Errorf("cell %d: restored stats differ from computed:\n %s\n %s", i, a, b)
		}
	}
}

// TestSampledJournalNotReplayedAcrossFlagChanges: a sampled cell stored
// under one schedule/confidence must be found only by a sweep with the
// identical flags; any change gives another Spec.Key, so the cell
// misses and resimulates.  The detailed cell of the same configuration
// never sees the sampled record either.
func TestSampledJournalNotReplayedAcrossFlagChanges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := store.Sampling{Period: 4_000, IntervalLen: 400, WarmupLen: 400, Confidence: 0.99}
	spec := func(s *store.Sampling) fleet.Spec {
		return fleet.Spec{Machine: config.Big216(), Features: config.RECRSRU, Workloads: []string{"compress"},
			Insts: 20_000, Sampling: s}
	}
	key := func(s *store.Sampling) string {
		k, err := spec(s).Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if err := st.Put(key(&base), &store.Record{Sampled: &recyclesim.SampledResult{IPC: 1.5}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		mutate     func(*store.Sampling)
		wantReplay bool
	}{
		{"identical flags", func(*store.Sampling) {}, true},
		{"changed confidence", func(s *store.Sampling) { s.Confidence = 0.90 }, false},
		{"default (unset) confidence", func(s *store.Sampling) { s.Confidence = 0 }, false},
		{"changed period", func(s *store.Sampling) { s.Period = 8_000 }, false},
		{"changed interval", func(s *store.Sampling) { s.IntervalLen = 800 }, false},
		{"changed warmup", func(s *store.Sampling) { s.WarmupLen = 800 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			if _, ok := st.Get(key(&s)); ok != tc.wantReplay {
				t.Errorf("replay = %v, want %v (schedule %+v)", ok, tc.wantReplay, s)
			}
		})
	}
	if _, ok := st.Get(key(nil)); ok {
		t.Error("detailed cell key collides with a sampled record")
	}
}
