package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
	"recyclesim/internal/workload"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testKey(t *testing.T, mutate func(*config.Machine, *config.Features, *uint64, **sample.Config)) string {
	t.Helper()
	m := config.Big216()
	f := config.RECRSRU
	insts := uint64(20_000)
	var samp *sample.Config
	if mutate != nil {
		mutate(&m, &f, &insts, &samp)
	}
	progs, err := workload.MixPrograms([]string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	return CellKey(m, f, HashPrograms(progs), insts, samp)
}

// TestCellKeyDistinctAcrossIdentity: every identity axis — machine,
// features, workload, budget, detailed vs. sampled, schedule, and
// confidence — must produce a distinct key.
func TestCellKeyDistinctAcrossIdentity(t *testing.T) {
	variants := map[string]string{
		"base": testKey(t, nil),
		"other machine": testKey(t, func(m *config.Machine, _ *config.Features, _ *uint64, _ **sample.Config) {
			*m = config.Small18()
		}),
		"other features": testKey(t, func(_ *config.Machine, f *config.Features, _ *uint64, _ **sample.Config) {
			*f = config.SMT
		}),
		"other budget": testKey(t, func(_ *config.Machine, _ *config.Features, insts *uint64, _ **sample.Config) {
			*insts = 40_000
		}),
		"sampled default": testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
			*samp = &sample.Config{}
		}),
		"sampled other schedule": testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
			*samp = &sample.Config{Period: 40_000}
		}),
		"sampled other interval": testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
			*samp = &sample.Config{IntervalLen: 400}
		}),
		"sampled other warmup": testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
			*samp = &sample.Config{WarmupLen: 400}
		}),
		"sampled 99% confidence": testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
			*samp = &sample.Config{Confidence: 0.99}
		}),
	}
	seen := map[string]string{}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %s", name, prev, key)
		}
		seen[key] = name
	}

	// Workload content reaches the key: a different benchmark differs.
	progs, err := workload.MixPrograms([]string{"li"})
	if err != nil {
		t.Fatal(err)
	}
	other := CellKey(config.Big216(), config.RECRSRU, HashPrograms(progs), 20_000, nil)
	if other == variants["base"] {
		t.Error("different workloads share a key")
	}
}

// TestCellKeyNormalizesSamplingDefaults: a zero (default) schedule and
// the same schedule spelled out explicitly address the same record —
// including the 0.95 default confidence — and the host-side Workers
// and Poll knobs never reach the key.
func TestCellKeyNormalizesSamplingDefaults(t *testing.T) {
	zero := testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
		*samp = &sample.Config{}
	})
	explicit := testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
		*samp = &sample.Config{Period: 20_000, IntervalLen: 1_000, WarmupLen: 1_000, Confidence: 0.95}
	})
	if zero != explicit {
		t.Errorf("default-equivalent schedules keyed apart:\n %s\n %s", zero, explicit)
	}
	host := testKey(t, func(_ *config.Machine, _ *config.Features, _ *uint64, samp **sample.Config) {
		*samp = &sample.Config{Workers: 4, Poll: func() error { return nil }}
	})
	if host != zero {
		t.Errorf("Workers/Poll changed the key:\n %s\n %s", zero, host)
	}
}

// TestCellKeyIgnoresInvariantChecker: the invariant checker only reads
// the machine, so a cell computed with it on shares the default cell's
// key and record.  The watchdog window stays in the key: a run with the
// watchdog off can return a partial result where the default run fails.
func TestCellKeyIgnoresInvariantChecker(t *testing.T) {
	base := testKey(t, nil)
	checked := testKey(t, func(_ *config.Machine, f *config.Features, _ *uint64, _ **sample.Config) {
		f.InvariantEvery = 256
	})
	if checked != base {
		t.Errorf("InvariantEvery changed the key:\n %s\n %s", base, checked)
	}
	unwatched := testKey(t, func(_ *config.Machine, f *config.Features, _ *uint64, _ **sample.Config) {
		f.WatchdogCycles = config.WatchdogOff
	})
	if unwatched == base {
		t.Error("WatchdogCycles did not reach the key")
	}
}

// TestCellKeyGolden pins the exact keys of one detailed and two sampled
// cells.  Every stored record is addressed by its key, so any change to
// the key derivation — keySchema, CellKey's rendering, HashPrograms, or
// the generated workloads — orphans every existing store.  Such a
// change must be deliberate: bump keySchema and update these values.
func TestCellKeyGolden(t *testing.T) {
	progs, err := workload.MixPrograms([]string{"compress", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	wh := HashPrograms(progs)
	for _, tc := range []struct {
		name string
		samp *sample.Config
		want string
	}{
		{"detailed", nil, "56545160ae6c3883e7891879eaaca1e4cecdca1b4060ad7e219618702af7bba5"},
		{"sampled default schedule", &sample.Config{}, "112407b53ace20c050b9916d88a19bf60cbc6d8022d75a3c307a9e685a08ef67"},
		{"sampled full schedule", &sample.Config{Period: 4000, IntervalLen: 400, WarmupLen: 300, Confidence: 0.9}, "0ed689cdeef6c11eba13c4127c01f65f31c283ee7e086c6c760916fc903cbc53"},
	} {
		if got := CellKey(config.Big216(), config.RECRSRU, wh, 60_000, tc.samp); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestHashProgramsDeterministic: the workload hash is stable across
// calls (the data image is a map; the hash must sort it).
func TestHashProgramsDeterministic(t *testing.T) {
	progs, err := workload.MixPrograms([]string{"su2cor", "compress"})
	if err != nil {
		t.Fatal(err)
	}
	h := HashPrograms(progs)
	for i := 0; i < 10; i++ {
		progs2, _ := workload.MixPrograms([]string{"su2cor", "compress"})
		if h2 := HashPrograms(progs2); h2 != h {
			t.Fatalf("hash unstable: %s vs %s", h, h2)
		}
	}
}

// TestPutGetRoundTrip: a record written is read back byte-equal
// (JSON-level) and DeepEqual, from a fresh Store over the same dir.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, nil)
	want := &Record{Stats: &stats.Sim{Cycles: 123, Committed: 456, PerProgram: []uint64{456}}}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir) // durability: a fresh handle sees the record
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	a, _ := json.Marshal(got.Stats)
	b, _ := json.Marshal(want.Stats)
	if string(a) != string(b) {
		t.Errorf("stats not byte-identical: %s vs %s", a, b)
	}
	if c := s2.Counters(); c.DiskHits != 0 {
		// Get alone does not count as a GetOrCompute hit.
		t.Errorf("counters %+v after bare Get", c)
	}
}

// TestGetRefusesCorruptRecords: truncated JSON, a record echoing the
// wrong key, a foreign codec version, and an empty payload are all
// misses, and GetOrCompute recomputes over them.
func TestGetRefusesCorruptRecords(t *testing.T) {
	key := testKey(t, nil)
	cases := []struct {
		name string
		data string
	}{
		{"truncated", `{"v":1,"key":"` + key + `","stats":{"Cyc`},
		{"wrong key", `{"v":1,"key":"0000","stats":{"Cycles":1}}`},
		{"foreign version", `{"v":999,"key":"` + key + `","stats":{"Cycles":1}}`},
		{"no payload", `{"v":1,"key":"` + key + `"}`},
		{"empty file", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t)
			path := s.path(key)
			os.MkdirAll(filepath.Dir(path), 0o755)
			os.WriteFile(path, []byte(tc.data), 0o644)
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt record served")
			}
			if c := s.Counters(); c.Corrupt == 0 {
				t.Error("corruption not counted")
			}

			// Recompute overwrites the damage.
			want := &Record{Stats: &stats.Sim{Cycles: 7}}
			rec, cached, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) { return want, nil })
			if err != nil || cached || rec.Stats.Cycles != 7 {
				t.Fatalf("recompute: rec=%+v cached=%v err=%v", rec, cached, err)
			}
			if got, ok := s.Get(key); !ok || got.Stats.Cycles != 7 {
				t.Error("recomputed record not persisted over the corrupt one")
			}
		})
	}
}

// TestGetOrComputeSingleFlight: N concurrent requests for one missing
// key run compute exactly once; everyone gets the same record, and the
// counters account for every request.
func TestGetOrComputeSingleFlight(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	const n = 16
	gate := make(chan struct{})
	var computes int
	var start, finish sync.WaitGroup
	recs := make([]*Record, n)
	start.Add(n)
	finish.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer finish.Done()
			start.Done()
			rec, _, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) {
				computes++ // data-race-free only if single-flight holds
				<-gate
				return &Record{Stats: &stats.Sim{Cycles: 42}}, nil
			})
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			recs[i] = rec
		}(i)
	}
	start.Wait()
	close(gate)
	finish.Wait()
	if computes != 1 {
		t.Errorf("compute ran %d times, want 1", computes)
	}
	c := s.Counters()
	if c.Computes != 1 {
		t.Errorf("Computes = %d, want 1", c.Computes)
	}
	if c.DiskHits+c.FlightShares != n-1 {
		t.Errorf("hits %d + shares %d != %d", c.DiskHits, c.FlightShares, n-1)
	}
	for i, rec := range recs {
		if rec == nil || rec.Stats.Cycles != 42 {
			t.Errorf("caller %d got %+v", i, rec)
		}
	}
}

// TestGetOrComputeErrorPropagates: a failed compute reaches every
// concurrent waiter and leaves no record on disk, so a later call
// retries.
func TestGetOrComputeErrorPropagates(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	boom := fmt.Errorf("cell exploded")
	if _, _, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, ok := s.Get(key); ok {
		t.Error("failed compute left a record")
	}
	rec, cached, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) {
		return &Record{Stats: &stats.Sim{Cycles: 1}}, nil
	})
	if err != nil || cached || rec.Stats.Cycles != 1 {
		t.Errorf("retry after failure: rec=%+v cached=%v err=%v", rec, cached, err)
	}
}

// TestGetOrComputeDiskHitAfterCompute: the second request for a key
// lands as a disk hit (cached = true) without recomputing.
func TestGetOrComputeDiskHitAfterCompute(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	compute := func(trace.Ctx) (*Record, error) { return &Record{Stats: &stats.Sim{Cycles: 9}}, nil }
	if _, cached, err := s.GetOrCompute(key, trace.Ctx{}, compute); err != nil || cached {
		t.Fatalf("first call: cached=%v err=%v", cached, err)
	}
	rec, cached, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) {
		t.Error("second call recomputed")
		return nil, nil
	})
	if err != nil || !cached || rec.Stats.Cycles != 9 {
		t.Fatalf("second call: rec=%+v cached=%v err=%v", rec, cached, err)
	}
	if c := s.Counters(); c.DiskHits != 1 || c.Computes != 1 {
		t.Errorf("counters %+v", c)
	}
}

// TestOpenRejectsEmptyDir: the empty string is a configuration error,
// not a store in the current directory.
func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// spanNames projects a trace onto its span-name sequence (allocation
// order) for the phase-attribution assertions below.
func spanNames(tr *trace.Trace) []string {
	var out []string
	for _, sp := range tr.Spans() {
		out = append(out, sp.Name)
	}
	return out
}

// TestTracedComputePath: a miss records lookup (miss), the compute
// body (handed its own span ctx for per-attempt children), and the
// put, all under the caller's parent span.
func TestTracedComputePath(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	tr := trace.New(1, 32)
	cell := tr.Root("cell")
	_, cached, err := s.GetOrCompute(key, cell, func(cs trace.Ctx) (*Record, error) {
		cs.Start("attempt").Uint("attempt", 0).End()
		return &Record{Stats: &stats.Sim{Cycles: 3}}, nil
	})
	if err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	cell.End()
	// First lookup misses, then the flight leader re-checks the disk
	// before computing: two lookup spans, the second marked recheck.
	want := []string{"cell", "lookup", "lookup", "compute", "attempt", "put"}
	if got := spanNames(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("span sequence %v, want %v", got, want)
	}
	spans := tr.Spans()
	if _, ok := spans[1].Attr("hit"); ok {
		t.Error("miss lookup carries a hit attribute")
	}
	if a, ok := spans[2].Attr("recheck"); !ok || a.U != 1 {
		t.Errorf("second lookup recheck attr = %+v, %v", a, ok)
	}
	if spans[4].Parent != spans[3].ID {
		t.Error("attempt span not parented under compute")
	}

	// The follow-up request is a disk hit with exactly one lookup span.
	tr2 := trace.New(2, 32)
	cell2 := tr2.Root("cell")
	_, cached, err = s.GetOrCompute(key, cell2, func(trace.Ctx) (*Record, error) {
		t.Error("hit path recomputed")
		return nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	if got := spanNames(tr2); !reflect.DeepEqual(got, []string{"cell", "lookup"}) {
		t.Errorf("hit span sequence %v", got)
	}
	if a, ok := tr2.Spans()[1].Attr("hit"); !ok || a.U != 1 {
		t.Errorf("hit lookup attr = %+v, %v", a, ok)
	}
}

// TestTracedFlightShare: a caller blocked on another's computation
// records a flight-wait span instead of compute/put.
func TestTracedFlightShare(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) {
			close(entered)
			<-gate
			return &Record{Stats: &stats.Sim{Cycles: 1}}, nil
		})
	}()
	<-entered
	tr := trace.New(3, 32)
	cell := tr.Root("cell")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, cached, err := s.GetOrCompute(key, cell, nil); err != nil || !cached {
			t.Errorf("share: cached=%v err=%v", cached, err)
		}
	}()
	// Wait for the follower to record its flight-wait span, then let
	// the leader finish.
	for {
		if names := spanNames(tr); len(names) == 3 {
			break
		}
	}
	close(gate)
	<-done
	wg.Wait()
	if got := spanNames(tr); !reflect.DeepEqual(got, []string{"cell", "lookup", "flight-wait"}) {
		t.Errorf("span sequence %v", got)
	}
}

// TestTracedCorruptLookup: a refused record is attributed on the
// lookup span.
func TestTracedCorruptLookup(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	if err := s.Put(key, &Record{Stats: &stats.Sim{Cycles: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(4, 32)
	_, cached, err := s.GetOrCompute(key, tr.Root("cell"), func(trace.Ctx) (*Record, error) {
		return &Record{Stats: &stats.Sim{Cycles: 2}}, nil
	})
	if err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	if a, ok := tr.Spans()[1].Attr("corrupt"); !ok || a.U != 1 {
		t.Errorf("corrupt attr = %+v, %v (spans %v)", a, ok, spanNames(tr))
	}
}

// TestTracedHitPathAllocParity is the tentpole witness: with tracing
// disabled (the zero Ctx), the GetOrCompute hit path allocates no more
// than a bare Get — instrumentation is free when off.
func TestTracedHitPathAllocParity(t *testing.T) {
	s := testStore(t)
	key := testKey(t, nil)
	if _, _, err := s.GetOrCompute(key, trace.Ctx{}, func(trace.Ctx) (*Record, error) {
		return &Record{Stats: &stats.Sim{Cycles: 7}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(200, func() {
		if _, ok := s.Get(key); !ok {
			t.Fatal("miss on warmed key")
		}
	})
	traced := testing.AllocsPerRun(200, func() {
		if _, cached, _ := s.GetOrCompute(key, trace.Ctx{}, nil); !cached {
			t.Fatal("miss on warmed key")
		}
	})
	if traced > plain {
		t.Errorf("disabled tracing costs %.1f allocs/hit vs %.1f for Get", traced, plain)
	}
}
