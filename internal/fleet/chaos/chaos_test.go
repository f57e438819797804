package chaos

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/jobs"
)

const cellInsts = 2_000

func sweepCells() []jobs.CellSpec {
	feats := []config.Features{config.SMT, config.TME, config.REC, config.RECRSRU}
	cells := make([]jobs.CellSpec, len(feats))
	for i, f := range feats {
		cells[i] = jobs.CellSpec{
			Machine:   config.Big216(),
			Features:  f,
			Workloads: []string{"compress"},
			Insts:     cellInsts,
		}
	}
	return cells
}

// directStats runs the reference computation the service must match
// byte for byte: a serial loop over recyclesim.Run, independent of the
// fleet's executor.
func directStats(t *testing.T, cells []jobs.CellSpec) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		res, err := recyclesim.Run(recyclesim.Options{
			Machine:   c.Machine,
			Features:  c.Features,
			Workloads: c.Workloads,
			MaxInsts:  c.Insts,
		})
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		b, _ := json.Marshal(res)
		out[i] = string(b)
	}
	return out
}

// runSweep submits the cells and blocks until every result streamed.
func runSweep(t *testing.T, h *Harness, cells []jobs.CellSpec) []jobs.CellResult {
	t.Helper()
	out := make([]jobs.CellResult, len(cells))
	st, err := h.Client.Run(context.Background(), jobs.JobRequest{Cells: cells}, func(r jobs.CellResult) error {
		out[r.Index] = r
		return nil
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if st.Failed != 0 {
		t.Fatalf("sweep finished with %d failed cells: %v", st.Failed, st.Errors)
	}
	return out
}

func assertStats(t *testing.T, res []jobs.CellResult, want []string, label string) {
	t.Helper()
	for i := range res {
		got, _ := json.Marshal(res[i].Stats)
		if string(got) != want[i] {
			t.Errorf("%s: cell %d stats differ from direct run:\n got %s\nwant %s", label, i, got, want[i])
		}
	}
}

func newHarness(t *testing.T, opts Options) *Harness {
	t.Helper()
	h, err := New(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestWorkerKilledMidSweep is the headline chaos witness: one of two
// workers is hard-killed (network dropped, no graceful release) while
// it is computing a leased cell.  The sweep must still complete with
// zero failures, every distinct cell computed into the store exactly
// once, and every result byte-identical to a direct library run.
func TestWorkerKilledMidSweep(t *testing.T) {
	cells := sweepCells()
	want := directStats(t, cells)
	h := newHarness(t, Options{MaxRequeues: 100})
	a := h.StartWorker(1)
	h.StartWorker(1)
	if !h.WaitWorkers(2, 5*time.Second) {
		t.Fatal("workers never registered")
	}
	// Park a's compute at its gate so the kill deterministically lands
	// mid-compute (the cells themselves finish in microseconds).
	a.Stall()

	type sweepOut struct {
		res []jobs.CellResult
		st  *jobs.JobStatus
		err error
	}
	done := make(chan sweepOut, 1)
	go func() {
		out := make([]jobs.CellResult, len(cells))
		st, err := h.Client.Run(context.Background(), jobs.JobRequest{Cells: cells}, func(r jobs.CellResult) error {
			out[r.Index] = r
			return nil
		})
		done <- sweepOut{out, st, err}
	}()

	// Kill worker a the moment it starts computing a leased cell.
	select {
	case <-a.Started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker a never started a compute")
	}
	a.Kill()

	// The dead worker's lease only comes back via the reaper; drive it
	// with the fake clock until the sweep lands.
	var out sweepOut
	deadline := time.After(30 * time.Second)
	for {
		select {
		case out = <-done:
		case <-deadline:
			t.Fatal("sweep never completed after worker kill")
		case <-time.After(50 * time.Millisecond):
			h.Reap(11 * time.Second)
			continue
		}
		break
	}
	if out.err != nil {
		t.Fatalf("sweep: %v", out.err)
	}
	if out.st.Failed != 0 {
		t.Fatalf("sweep finished with failures: %v", out.st.Errors)
	}
	assertStats(t, out.res, want, "post-kill sweep")

	// Exactly-once at the store: one compute per distinct cell, no
	// matter how many leases the kill churned through.
	if c := h.Store.Counters(); c.Computes != uint64(len(cells)) {
		t.Errorf("store computes = %d, want %d (exactly once per distinct cell)", c.Computes, len(cells))
	}
	fc := h.Dispatcher.Counters()
	if fc.Requeues == 0 {
		t.Error("kill produced no requeues — fault was not exercised")
	}
	if fc.WorkersLost == 0 && fc.LeasesExpired == 0 {
		t.Errorf("dead worker never detected: %+v", fc)
	}
}

// TestStalledComputeRequeuedAndStaleDropped: a worker's compute hangs
// mid-cell.  Its lease expires, the cell requeues to the healthy
// worker, and when the stalled compute finally finishes, its
// completion is dropped as stale — never double-stored.
func TestStalledComputeRequeuedAndStaleDropped(t *testing.T) {
	cells := sweepCells()[:1]
	want := directStats(t, cells)
	h := newHarness(t, Options{MaxRequeues: 100})
	a := h.StartWorker(1)
	a.Stall()
	if !h.WaitWorkers(1, 5*time.Second) {
		t.Fatal("worker a never registered")
	}

	done := make(chan []jobs.CellResult, 1)
	go func() {
		out := make([]jobs.CellResult, len(cells))
		_, err := h.Client.Run(context.Background(), jobs.JobRequest{Cells: cells}, func(r jobs.CellResult) error {
			out[r.Index] = r
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	select {
	case <-a.Started:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled worker never picked the cell up")
	}

	// A healthy worker joins; the stalled lease is reaped over to it.
	b := h.StartWorker(1)
	if !h.WaitWorkers(2, 5*time.Second) {
		t.Fatal("worker b never registered")
	}
	// Advance the fake clock past the TTL until the stalled lease is
	// taken back, and no further: heartbeats run on wall time, so more
	// fake seconds would also reap the healthy worker's lease.
	deadline := time.After(30 * time.Second)
	for h.Dispatcher.Counters().LeasesExpired == 0 {
		select {
		case <-deadline:
			t.Fatal("stalled lease never taken back")
		case <-time.After(50 * time.Millisecond):
			h.Reap(11 * time.Second)
		}
	}
	var res []jobs.CellResult
	select {
	case res = <-done:
	case <-deadline:
		t.Fatal("sweep never completed around the stalled worker")
	}
	assertStats(t, res, want, "stall-requeued sweep")
	if b.Computes() != 1 {
		t.Errorf("healthy worker computes = %d, want 1", b.Computes())
	}

	// Release the zombie compute: its late completion must be dropped.
	a.Resume()
	stale := false
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		if h.Dispatcher.Counters().StaleResults >= 1 {
			stale = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !stale {
		t.Error("stalled worker's late completion never dropped as stale")
	}
	if c := h.Store.Counters(); c.Computes != 1 {
		t.Errorf("store computes = %d, want 1 (stale result must not double-store)", c.Computes)
	}
}

// TestGracefulStopRequeuesAtOnce: a worker stopped mid-compute gives
// its cell back by deregistering, so the cell requeues to the other
// worker at once — no lease expiry, no Reap — and the result is still
// byte-identical to a direct library run.
func TestGracefulStopRequeuesAtOnce(t *testing.T) {
	cells := sweepCells()[:1]
	want := directStats(t, cells)
	h := newHarness(t, Options{})
	a := h.StartWorker(1)
	a.Stall()
	if !h.WaitWorkers(1, 5*time.Second) {
		t.Fatal("worker a never registered")
	}

	done := make(chan []jobs.CellResult, 1)
	go func() {
		out := make([]jobs.CellResult, len(cells))
		_, err := h.Client.Run(context.Background(), jobs.JobRequest{Cells: cells}, func(r jobs.CellResult) error {
			out[r.Index] = r
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	select {
	case <-a.Started:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled worker never picked the cell up")
	}
	b := h.StartWorker(1)
	if !h.WaitWorkers(2, 5*time.Second) {
		t.Fatal("worker b never registered")
	}

	a.Stop()
	c := h.Dispatcher.Counters()
	if c.Departs != 1 || c.Requeues != 1 {
		t.Fatalf("after a graceful stop: departs %d, requeues %d, want 1 and 1", c.Departs, c.Requeues)
	}
	var res []jobs.CellResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never completed after the graceful stop")
	}
	assertStats(t, res, want, "graceful-stop sweep")
	if got := b.Computes() + h.Dispatcher.Counters().LocalComputes; got != 1 {
		t.Errorf("worker b and local computes sum to %d, want 1", got)
	}
	if c := h.Dispatcher.Counters(); c.WorkersLost != 0 || c.StaleResults != 0 {
		t.Errorf("graceful stop looked like a failure: %+v", c)
	}
}

// TestPartitionedWorkerRejoins: a partitioned worker is declared lost
// (sweeps degrade to local compute), and on healing it discovers it
// was disowned (410) and re-registers, serving cells again.
func TestPartitionedWorkerRejoins(t *testing.T) {
	cells := sweepCells()
	h := newHarness(t, Options{})
	a := h.StartWorker(2)
	if !h.WaitWorkers(1, 5*time.Second) {
		t.Fatal("worker never registered")
	}

	// Healthy: the worker serves the first cell.
	runSweep(t, h, cells[:1])
	if a.Computes() != 1 {
		t.Fatalf("worker computes = %d, want 1", a.Computes())
	}

	// Partition and reap: the daemon declares the worker lost.
	a.Partition(true)
	h.Reap(21 * time.Second)
	if got := h.Dispatcher.Counters(); got.Workers != 0 || got.WorkersLost != 1 {
		t.Fatalf("partitioned worker not declared lost: %+v", got)
	}

	// Degraded: with zero workers attached the sweep computes locally.
	runSweep(t, h, cells[1:2])
	if c := h.Dispatcher.Counters(); c.LocalFallbacks == 0 && c.LocalComputes == 0 {
		t.Fatalf("zero-worker sweep did not fall back locally: %+v", c)
	}
	if a.Computes() != 1 {
		t.Fatalf("partitioned worker computed a cell it cannot reach: %d", a.Computes())
	}

	// Heal: the worker hits 410 on its next poll and re-registers.
	a.Partition(false)
	if !h.WaitWorkers(1, 10*time.Second) {
		t.Fatal("healed worker never re-registered")
	}
	runSweep(t, h, cells[2:3])
	if a.Computes() != 2 {
		t.Errorf("healed worker computes = %d, want 2", a.Computes())
	}
	if c := h.Dispatcher.Counters(); c.Registers != 2 {
		t.Errorf("registers = %d, want 2 (initial + rejoin)", c.Registers)
	}
	if c := h.Store.Counters(); c.Computes != 3 {
		t.Errorf("store computes = %d, want 3", c.Computes)
	}
}

// TestByteIdenticalAcrossFleetSizes is the determinism witness the
// whole fleet design hangs on: the same sweep on 0, 1, and 2 workers
// produces results byte-identical to each other and to a direct
// library run.
func TestByteIdenticalAcrossFleetSizes(t *testing.T) {
	cells := sweepCells()
	want := directStats(t, cells)
	for _, workers := range []int{0, 1, 2} {
		h := newHarness(t, Options{})
		for i := 0; i < workers; i++ {
			h.StartWorker(1)
		}
		if !h.WaitWorkers(workers, 5*time.Second) {
			t.Fatalf("%d workers never registered", workers)
		}
		res := runSweep(t, h, cells)
		assertStats(t, res, want, "fleet size "+string(rune('0'+workers)))
		if c := h.Store.Counters(); c.Computes != uint64(len(cells)) {
			t.Errorf("fleet size %d: store computes = %d, want %d", workers, c.Computes, len(cells))
		}
		// Full payload identity (stats, metrics, key) across sizes is
		// implied by key identity + stats identity; double-check the
		// metrics too.
		for i := range res {
			if res[i].Metrics == nil {
				t.Errorf("fleet size %d: cell %d has no metrics", workers, i)
			}
		}
		h.Close()
	}
}

// TestNoGoroutineLeakUnderWorkerChurn mirrors the cancelled-streams
// leak witness: repeated worker connect / hard-kill / graceful-stop
// churn must leave the daemon's goroutine count where it started.
func TestNoGoroutineLeakUnderWorkerChurn(t *testing.T) {
	h := newHarness(t, Options{})
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		a := h.StartWorker(2)
		b := h.StartWorker(1)
		if !h.WaitWorkers(2, 5*time.Second) {
			t.Fatal("churn workers never registered")
		}
		a.Kill() // silent death: daemon finds out via the reaper
		b.Stop() // graceful: deregisters, requeueing its cells
		h.Reap(21 * time.Second)
		if !h.WaitWorkers(0, 5*time.Second) {
			t.Fatal("churned workers never drained")
		}
	}
	// Parked long-polls and keep-alive conns wind down asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d under worker churn", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
