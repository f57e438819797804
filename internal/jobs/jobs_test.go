package jobs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/sample"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
)

// newTestService builds a job server over a store at dir and mounts it
// on an httptest listener, returning the server and a client.
func newTestService(t *testing.T, dir string, cfg Config) (*Server, *Client) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(context.Background(), st, cfg)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func detailedCell(feat config.Features, names []string, insts uint64) CellSpec {
	return CellSpec{Machine: config.Big216(), Features: feat, Workloads: names, Insts: insts}
}

// awaitJob blocks until job id is done, so its records are written
// before the test's store directory is removed.
func awaitJob(t *testing.T, c *Client, id string) {
	t.Helper()
	if err := c.StreamResults(context.Background(), id, func(CellResult) error { return nil }); err != nil {
		t.Fatalf("streaming job %s: %v", id, err)
	}
}

// collect runs the full client workflow and returns results indexed by
// the submitted cell slot.
func collect(t *testing.T, c *Client, jr JobRequest) ([]CellResult, *JobStatus) {
	t.Helper()
	out := make([]CellResult, len(jr.Cells))
	seen := make([]bool, len(jr.Cells))
	st, err := c.Run(context.Background(), jr, func(res CellResult) error {
		if res.Index < 0 || res.Index >= len(out) || seen[res.Index] {
			t.Errorf("bad or duplicate result index %d", res.Index)
			return nil
		}
		out[res.Index], seen[res.Index] = res, true
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never streamed", i)
		}
	}
	return out, st
}

// TestConcurrentClientsShareCells is the acceptance witness: two
// concurrent clients submit overlapping sweeps; every per-cell result
// must be byte-identical to a direct serial run of the same options, and
// each shared cell must have been simulated exactly once (the store's
// compute counter is the proof).
func TestConcurrentClientsShareCells(t *testing.T) {
	const insts = 2_000
	cells := []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, insts),
		detailedCell(config.TME, []string{"li"}, insts),
		detailedCell(config.RECRSRU, []string{"compress"}, insts),
	}
	srv, client := newTestService(t, t.TempDir(), Config{Workers: 2})

	// Client A sweeps all three cells; client B concurrently sweeps a
	// subset overlapping in cells 1 and 2.
	var wg sync.WaitGroup
	var resA, resB []CellResult
	var stA, stB *JobStatus
	wg.Add(2)
	go func() { defer wg.Done(); resA, stA = collect(t, client, JobRequest{Cells: cells}) }()
	go func() { defer wg.Done(); resB, stB = collect(t, client, JobRequest{Cells: cells[1:]}) }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every distinct cell simulated exactly once, across both jobs.
	c := srv.StoreCounters()
	if c.Computes != 3 {
		t.Errorf("store computes = %d, want 3 (each distinct cell exactly once)", c.Computes)
	}
	if c.DiskHits+c.FlightShares != 2 {
		t.Errorf("hits %d + flight shares %d = %d, want 2 (client B's overlap)",
			c.DiskHits, c.FlightShares, c.DiskHits+c.FlightShares)
	}
	if got := stA.Computes + stB.Computes; got != 3 {
		t.Errorf("job computes sum to %d, want 3 (statuses %+v / %+v)", got, stA, stB)
	}
	if got := stA.Hits + stB.Hits; got != 2 {
		t.Errorf("job hits sum to %d, want 2 (statuses %+v / %+v)", got, stA, stB)
	}

	// Byte-identity against a direct serial run of the same options.
	for i, cell := range cells {
		direct, err := recyclesim.Run(recyclesim.Options{
			Machine:   cell.Machine,
			Features:  cell.Features,
			Workloads: cell.Workloads,
			MaxInsts:  cell.Insts,
			MaxCycles: 40 * cell.Insts,
		})
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		want, _ := json.Marshal(direct)
		got, _ := json.Marshal(resA[i].Stats)
		if string(got) != string(want) {
			t.Errorf("cell %d served stats differ from direct run:\n got %s\nwant %s", i, got, want)
		}
	}
	// Client B's overlapping cells must be the same bytes as client A's.
	for i := 1; i < len(cells); i++ {
		a, _ := json.Marshal(resA[i])
		b, _ := json.Marshal(resB[i-1])
		// Index differs by construction; compare payloads.
		var am, bm map[string]json.RawMessage
		json.Unmarshal(a, &am)
		json.Unmarshal(b, &bm)
		for _, field := range []string{"stats", "metrics", "sampled", "key"} {
			if string(am[field]) != string(bm[field]) {
				t.Errorf("cell %d: clients disagree on %s:\n %s\n %s", i, field, am[field], bm[field])
			}
		}
	}
}

// TestSampledCellWitness: a sampled cell served by the service equals
// a direct RunSampledContext run — including the confidence-dependent
// interval bounds — and the second request is a store hit serving the
// identical bytes.
func TestSampledCellWitness(t *testing.T) {
	spec := CellSpec{
		Machine:   config.Big216(),
		Features:  config.RECRSRU,
		Workloads: []string{"compress"},
		Insts:     20_000,
		Sampling:  &sample.Config{Period: 4_000, IntervalLen: 400, WarmupLen: 400, Confidence: 0.99},
	}
	srv, client := newTestService(t, t.TempDir(), Config{Workers: 1})

	res1, st1 := collect(t, client, JobRequest{Cells: []CellSpec{spec}})
	if st1.Computes != 1 || st1.Hits != 0 {
		t.Errorf("first run status %+v, want 1 compute", st1)
	}
	if res1[0].Error != "" || res1[0].Sampled == nil {
		t.Fatalf("sampled cell failed: %+v", res1[0])
	}

	samp := *spec.Sampling
	samp.Workers = 1
	direct, err := recyclesim.RunSampledContext(context.Background(), recyclesim.Options{
		Machine:   spec.Machine,
		Features:  spec.Features,
		Workloads: spec.Workloads,
		MaxInsts:  spec.Insts,
		Sampling:  &samp,
	})
	if err != nil {
		t.Fatalf("direct RunSampled: %v", err)
	}
	if !reflect.DeepEqual(res1[0].Sampled, direct) {
		t.Errorf("served estimate differs from direct run:\n got %+v\nwant %+v", res1[0].Sampled, direct)
	}

	res2, st2 := collect(t, client, JobRequest{Cells: []CellSpec{spec}})
	if st2.Hits != 1 || st2.Computes != 0 {
		t.Errorf("second run status %+v, want pure hit", st2)
	}
	a, _ := json.Marshal(res1[0].Sampled)
	b, _ := json.Marshal(res2[0].Sampled)
	if string(a) != string(b) {
		t.Errorf("store round trip not byte-identical:\n %s\n %s", a, b)
	}
	_ = srv
}

// TestStoreSurvivesRestart: a fresh server over the same directory
// serves everything from disk — zero computes.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cells := []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 2_000),
		detailedCell(config.SMT, []string{"li"}, 2_000),
	}
	_, client1 := newTestService(t, dir, Config{})
	first, _ := collect(t, client1, JobRequest{Cells: cells})

	srv2, client2 := newTestService(t, dir, Config{})
	second, st := collect(t, client2, JobRequest{Cells: cells})
	if st.Hits != 2 || st.Computes != 0 {
		t.Errorf("restarted server status %+v, want 2 hits 0 computes", st)
	}
	if c := srv2.StoreCounters(); c.Computes != 0 {
		t.Errorf("restarted store computed %d cells", c.Computes)
	}
	for i := range cells {
		a, _ := json.Marshal(first[i].Stats)
		b, _ := json.Marshal(second[i].Stats)
		if string(a) != string(b) {
			t.Errorf("cell %d differs across restart:\n %s\n %s", i, a, b)
		}
	}
}

// TestBadCellsFailSoft: an unknown workload and an invalid machine
// fail their own cells with error records; healthy cells in the same
// job still complete.
func TestBadCellsFailSoft(t *testing.T) {
	badMachine := config.Big216()
	badMachine.Contexts = 0
	cells := []CellSpec{
		detailedCell(config.SMT, []string{"nonesuch"}, 2_000),
		{Machine: badMachine, Features: config.SMT, Workloads: []string{"compress"}, Insts: 2_000},
		detailedCell(config.SMT, []string{"compress"}, 2_000),
	}
	_, client := newTestService(t, t.TempDir(), Config{})
	res, st := collect(t, client, JobRequest{Cells: cells})
	if st.Failed != 2 || len(st.Errors) != 2 {
		t.Errorf("status %+v, want 2 failed cells", st)
	}
	if res[0].Error == "" || !strings.Contains(res[0].Error, "nonesuch") {
		t.Errorf("unknown workload error %q", res[0].Error)
	}
	if res[1].Error == "" {
		t.Error("invalid machine produced no error")
	}
	if res[2].Error != "" || res[2].Stats == nil || res[2].Stats.Committed == 0 {
		t.Errorf("healthy cell damaged by failing neighbours: %+v", res[2])
	}
}

// TestHTTPContract: submit validation, 404s, the status document, and
// the storestats endpoint.
func TestHTTPContract(t *testing.T) {
	srv, client := newTestService(t, t.TempDir(), Config{})
	_ = srv

	if _, err := client.Submit(context.Background(), JobRequest{}); err == nil ||
		!strings.Contains(err.Error(), "no cells") {
		t.Errorf("empty submit err = %v, want 'no cells'", err)
	}
	if _, err := client.Status(context.Background(), "j999"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("missing job err = %v, want 404", err)
	}
	if err := client.StreamResults(context.Background(), "j999", nil); err == nil {
		t.Error("streaming a missing job succeeded")
	}

	_, st := collect(t, client, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1_000),
	}})
	if st.State != "done" || st.Cells != 1 || st.Done != 1 {
		t.Errorf("status %+v", st)
	}
	counters, err := client.StoreCounters(context.Background())
	if err != nil {
		t.Fatalf("StoreCounters: %v", err)
	}
	if counters["computes"] != 1 {
		t.Errorf("storestats %+v, want computes 1", counters)
	}
}

// TestProgressFeedsAcrossJobs: the shared Progress accumulates totals
// and completions over consecutive jobs.
func TestProgressFeedsAcrossJobs(t *testing.T) {
	prog := &sweep.Progress{}
	_, client := newTestService(t, t.TempDir(), Config{Progress: prog})
	collect(t, client, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1_000),
	}})
	collect(t, client, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"li"}, 1_000),
	}})
	done, total, insts, _ := prog.Snapshot()
	if done != 2 || total != 2 || insts == 0 {
		t.Errorf("progress done=%d total=%d insts=%d, want 2/2 with instructions", done, total, insts)
	}
}
