package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/store"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testSpec(name string) Spec {
	m := config.Big216()
	m.Name = name
	return Spec{Machine: m, Features: config.Features{}, Workloads: []string{"mix"}, Insts: 1000}
}

func testRecord() *store.Record { return &store.Record{Version: 1, Key: "k"} }

func newTestDispatcher(clk *fakeClock, local func(ctx context.Context, spec Spec) (*store.Record, error)) *Dispatcher {
	cfg := Config{
		Local:       local,
		LeaseTTL:    10 * time.Second,
		MaxRequeues: 2,
	}
	if clk != nil {
		cfg.Now = clk.Now
	}
	return NewDispatcher(cfg)
}

func TestComputeLocalWhenNoWorkers(t *testing.T) {
	calls := 0
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		calls++
		return testRecord(), nil
	})
	rec, err := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
	if err != nil || rec == nil {
		t.Fatalf("Compute = %v, %v", rec, err)
	}
	if calls != 1 {
		t.Fatalf("local calls = %d, want 1", calls)
	}
	c := d.Counters()
	if c.LocalComputes != 1 || c.RemoteComputes != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestComputeRemoteRoundTrip(t *testing.T) {
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		t.Error("local compute must not run when a worker serves the cell")
		return nil, errors.New("unexpected")
	})
	info := d.RegisterWorker("w", 1)

	done := make(chan error, 1)
	go func() {
		rec, err := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		if err == nil && rec == nil {
			err = errors.New("nil record")
		}
		done <- err
	}()

	g := waitLease(t, d, info.Worker)
	if stale := d.Complete(info.Worker, g.Lease, testRecord(), ""); stale {
		t.Fatal("fresh completion flagged stale")
	}
	if err := <-done; err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c := d.Counters(); c.RemoteComputes != 1 {
		t.Fatalf("remote computes = %d, want 1", c.RemoteComputes)
	}
}

// waitLease polls a zero-wait Lease until the queued cell shows up.
func waitLease(t *testing.T, d *Dispatcher, workerID string) *Grant {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g, err := d.Lease(context.Background(), workerID, 0)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if g != nil {
			return g
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

func TestLeaseExpiryRequeuesAndDropsStaleResult(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, nil)
	info := d.RegisterWorker("w", 2)

	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		done <- rec
	}()

	first := waitLease(t, d, info.Worker)
	// Keep the worker alive but let the lease lapse (no renewal).
	clk.Advance(11 * time.Second)
	_ = d.Heartbeat(info.Worker, nil) // liveness only; not renewing the lease
	if n := d.Reap(); n != 1 {
		t.Fatalf("Reap requeued %d leases, want 1", n)
	}

	second := waitLease(t, d, info.Worker)
	if second.Lease == first.Lease {
		t.Fatal("requeued cell reused the expired lease ID")
	}
	// The original holder answers late: dropped as stale.
	if stale := d.Complete(info.Worker, first.Lease, testRecord(), ""); !stale {
		t.Fatal("expired lease completion not flagged stale")
	}
	want := testRecord()
	want.Key = "fresh"
	if stale := d.Complete(info.Worker, second.Lease, want, ""); stale {
		t.Fatal("current lease completion flagged stale")
	}
	if rec := <-done; rec == nil || rec.Key != "fresh" {
		t.Fatalf("Compute returned %+v, want the current lease's record", rec)
	}
	c := d.Counters()
	if c.LeasesExpired != 1 || c.StaleResults != 1 || c.Requeues != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestWorkerLostRequeuesToSurvivor(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, nil)
	a := d.RegisterWorker("a", 1)
	b := d.RegisterWorker("b", 1)

	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		done <- rec
	}()

	g := waitLease(t, d, a.Worker)
	// a goes silent past 2x the lease TTL; b stays warm.
	clk.Advance(21 * time.Second)
	_ = d.Heartbeat(b.Worker, nil)
	d.Reap()
	if _, err := d.Lease(context.Background(), a.Worker, 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lost worker Lease err = %v, want ErrUnknownWorker", err)
	}
	if stale := d.Complete(a.Worker, g.Lease, testRecord(), ""); !stale {
		t.Fatal("dead worker's completion not flagged stale")
	}

	g2 := waitLease(t, d, b.Worker)
	if stale := d.Complete(b.Worker, g2.Lease, testRecord(), ""); stale {
		t.Fatal("survivor completion flagged stale")
	}
	if rec := <-done; rec == nil {
		t.Fatal("Compute returned nil record")
	}
	if c := d.Counters(); c.WorkersLost != 1 {
		t.Fatalf("workers lost = %d, want 1", c.WorkersLost)
	}
}

func TestLastWorkerLossFallsBackLocal(t *testing.T) {
	localCh := make(chan struct{}, 1)
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		localCh <- struct{}{}
		return testRecord(), nil
	})
	info := d.RegisterWorker("w", 1)

	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		done <- err
	}()
	waitLease(t, d, info.Worker)
	if err := d.Deregister(info.Worker); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	select {
	case <-localCh:
	case <-time.After(5 * time.Second):
		t.Fatal("local fallback compute never ran")
	}
	if err := <-done; err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c := d.Counters(); c.LocalFallbacks != 1 || c.LocalComputes != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestMaxRequeuesDegradesToLocal(t *testing.T) {
	clk := newFakeClock()
	localCh := make(chan struct{}, 1)
	d := NewDispatcher(Config{
		Local: func(ctx context.Context, spec Spec) (*store.Record, error) {
			localCh <- struct{}{}
			return testRecord(), nil
		},
		LeaseTTL:    10 * time.Second,
		MaxRequeues: 2,
		Now:         clk.Now,
	})
	info := d.RegisterWorker("w", 1)
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
	}()
	// Expire the lease MaxRequeues+1 times: the cell stops trusting
	// the fleet and computes locally.
	for i := 0; i < 3; i++ {
		waitLease(t, d, info.Worker)
		clk.Advance(11 * time.Second)
		_ = d.Heartbeat(info.Worker, nil)
		d.Reap()
	}
	select {
	case <-localCh:
	case <-time.After(5 * time.Second):
		t.Fatal("cell never degraded to local compute")
	}
	if c := d.Counters(); c.LocalFallbacks != 1 || c.Requeues != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHeartbeatRenewalCappedByMaxLifetime(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, func(ctx context.Context, spec Spec) (*store.Record, error) {
		return testRecord(), nil
	})
	info := d.RegisterWorker("w", 1)
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
	}()
	g := waitLease(t, d, info.Worker)
	// Renew forever, every 8s of a 10s TTL, so the worker never looks
	// dead: past the 20x TTL lifetime cap (200s after the grant) the
	// renewals stop extending the deadline and the reaper takes the
	// lease anyway — on the 26th renewal, at 208s, and not before.
	for i := 1; i <= 26; i++ {
		if c := d.Counters(); c.LeasesExpired != 0 {
			t.Fatalf("lease expired before renewal %d (%ds), ahead of the 200s cap: %+v", i, 8*i, c)
		}
		clk.Advance(8 * time.Second)
		if err := d.Heartbeat(info.Worker, []uint64{g.Lease}); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		d.Reap()
	}
	if c := d.Counters(); c.LeasesExpired != 1 || c.WorkersLost != 0 {
		t.Fatalf("hung compute's lease never expired despite heartbeats: %+v", c)
	}
}

// TestComputeErrorIsFinal: a compute error, reported by a worker or
// returned by the local executor, fails the cell on its one attempt —
// no second lease, no second local call, no fallback.
func TestComputeErrorIsFinal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remote bool
	}{
		{"remote error", true},
		{"local error", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
				calls.Add(1)
				return nil, errors.New("sim diverged")
			})
			var worker string
			if tc.remote {
				worker = d.RegisterWorker("w", 1).Worker
			}
			done := make(chan error, 1)
			go func() {
				_, err := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
				done <- err
			}()
			if tc.remote {
				g := waitLease(t, d, worker)
				d.Complete(worker, g.Lease, nil, "sim diverged")
			}
			err := <-done
			if err == nil || !strings.Contains(err.Error(), "sim diverged") {
				t.Fatalf("Compute err = %v, want the compute's error", err)
			}
			wantLeases, wantCalls := uint64(0), int32(1)
			if tc.remote {
				wantLeases, wantCalls = 1, 0
				if g, _ := d.Lease(context.Background(), worker, 0); g != nil {
					t.Fatalf("failed cell leased again: %+v", g)
				}
			}
			c := d.Counters()
			if c.LeasesGranted != wantLeases || calls.Load() != wantCalls || c.LocalFallbacks != 0 {
				t.Fatalf("leases %d, local calls %d, counters %+v; want %d leases, %d local calls, no fallback",
					c.LeasesGranted, calls.Load(), c, wantLeases, wantCalls)
			}
		})
	}
}

func TestComputeCancelAbandonsTask(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(ctx, testSpec("m"), trace.Ctx{})
		done <- err
	}()
	g := waitLease(t, d, info.Worker)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute err = %v, want context.Canceled", err)
	}
	// The worker's eventual result lands stale, not delivered.
	if stale := d.Complete(info.Worker, g.Lease, testRecord(), ""); !stale {
		t.Fatal("abandoned task's completion not flagged stale")
	}
}

func TestLongPollHandsOffDirectly(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	leased := make(chan *Grant, 1)
	go func() {
		g, err := d.Lease(context.Background(), info.Worker, 5*time.Second)
		if err != nil {
			t.Errorf("Lease: %v", err)
		}
		leased <- g
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
	}()
	select {
	case g := <-leased:
		if g == nil {
			t.Fatal("parked poller got nil grant")
		}
		d.Complete(info.Worker, g.Lease, testRecord(), "")
	case <-time.After(5 * time.Second):
		t.Fatal("parked poller never woke")
	}
}

// leaseOutcome is what one Lease call returned.
type leaseOutcome struct {
	g   *Grant
	err error
}

// parkPoll starts a long-polling Lease call for workerID and returns
// the channel its outcome arrives on; the short sleep lets it park.
func parkPoll(ctx context.Context, d *Dispatcher, workerID string, wait time.Duration) <-chan leaseOutcome {
	out := make(chan leaseOutcome, 1)
	go func() {
		g, err := d.Lease(ctx, workerID, wait)
		out <- leaseOutcome{g, err}
	}()
	time.Sleep(20 * time.Millisecond)
	return out
}

// TestReapRequeueReachesParkedPoll: a cell the reaper takes back from
// one worker goes to a poll another worker has already parked, within
// that poll's wait.
func TestReapRequeueReachesParkedPoll(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, nil)
	a := d.RegisterWorker("a", 1)
	b := d.RegisterWorker("b", 1)
	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		done <- rec
	}()
	first := waitLease(t, d, a.Worker)
	parked := parkPoll(context.Background(), d, b.Worker, 5*time.Second)
	clk.Advance(11 * time.Second)
	if n := d.Reap(); n != 1 {
		t.Fatalf("Reap requeued %d leases, want 1", n)
	}
	r := <-parked
	if r.err != nil || r.g == nil || r.g.Lease == first.Lease {
		t.Fatalf("parked poll got %+v, %v; want the requeued cell under a new lease", r.g, r.err)
	}
	if stale := d.Complete(b.Worker, r.g.Lease, testRecord(), ""); stale {
		t.Fatal("parked poll's completion flagged stale")
	}
	if rec := <-done; rec == nil {
		t.Fatal("Compute returned nil record")
	}
	if c := d.Counters(); c.LeasesGranted != 2 || c.LeasesExpired != 1 || c.Requeues != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestParkedPollsShareOneCell: two parked polls and one queued cell —
// exactly one poll is granted it, and the other times out with nothing.
func TestParkedPollsShareOneCell(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 2)
	polls := []<-chan leaseOutcome{
		parkPoll(context.Background(), d, info.Worker, 200*time.Millisecond),
		parkPoll(context.Background(), d, info.Worker, 200*time.Millisecond),
	}
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
	}()
	var grants []*Grant
	for _, p := range polls {
		r := <-p
		if r.err != nil {
			t.Fatalf("Lease: %v", r.err)
		}
		if r.g != nil {
			grants = append(grants, r.g)
		}
	}
	if len(grants) != 1 {
		t.Fatalf("%d parked polls were granted the one cell, want 1", len(grants))
	}
	if c := d.Counters(); c.LeasesGranted != 1 {
		t.Fatalf("counters = %+v, want one lease granted", c)
	}
	d.Complete(info.Worker, grants[0].Lease, testRecord(), "")
}

// TestParkedPollCancelTakesNothing: a parked poll whose context ends
// returns the context's error and takes nothing, even with a cell
// queued right after the cancel; that cell goes to the next poll, and
// no lease is taken back.
func TestParkedPollCancelTakesNothing(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	ctx, cancel := context.WithCancel(context.Background())
	parked := parkPoll(ctx, d, info.Worker, 5*time.Second)
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(context.Background(), testSpec("m"), trace.Ctx{})
		done <- err
	}()
	if r := <-parked; !errors.Is(r.err, context.Canceled) || r.g != nil {
		t.Fatalf("cancelled poll = %+v, %v; want nothing taken and context.Canceled", r.g, r.err)
	}
	g := waitLease(t, d, info.Worker)
	if stale := d.Complete(info.Worker, g.Lease, testRecord(), ""); stale {
		t.Fatal("next poll's completion flagged stale")
	}
	if err := <-done; err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c := d.Counters(); c.LeasesGranted != 1 || c.LeasesExpired != 0 || c.Requeues != 0 {
		t.Fatalf("counters = %+v, want one lease and nothing taken back", c)
	}
}

func TestLongPollTimeout(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	g, err := d.Lease(context.Background(), info.Worker, 10*time.Millisecond)
	if err != nil || g != nil {
		t.Fatalf("Lease = %v, %v, want nil, nil on timeout", g, err)
	}
}

func TestWorkerHTTPRoundTrip(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	mux := http.NewServeMux()
	d.Register(mux, "fleet-secret")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Wrong token: every endpoint refuses.
	resp, err := http.Post(srv.URL+"/fleet/register", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless register status = %d, want 401", resp.StatusCode)
	}

	computed := make(chan string, 1)
	w := NewWorker(WorkerConfig{
		BaseURL:  srv.URL,
		Name:     "httptest",
		Token:    "fleet-secret",
		PollWait: 50 * time.Millisecond,
		Compute: func(ctx context.Context, spec Spec) (*store.Record, error) {
			computed <- spec.Machine.Name
			return testRecord(), nil
		},
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	go func() { _ = w.Run(wctx); close(workerDone) }()

	// Wait for the worker's registration to land, else Compute
	// (correctly) degrades to local execution.
	for deadline := time.Now().Add(5 * time.Second); d.Counters().Workers == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rec, err := d.Compute(context.Background(), testSpec("remote-cell"), trace.Ctx{})
	if err != nil || rec == nil {
		t.Fatalf("Compute over HTTP = %v, %v", rec, err)
	}
	if name := <-computed; name != "remote-cell" {
		t.Fatalf("worker computed %q, want remote-cell", name)
	}
	if w.Computes() != 1 {
		t.Fatalf("worker computes = %d, want 1", w.Computes())
	}
	wcancel()
	select {
	case <-workerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not shut down")
	}
	if c := d.Counters(); c.Departs != 1 {
		t.Fatalf("graceful worker exit not recorded as depart: %+v", c)
	}
}

func TestUnknownWorkerGets410(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	mux := http.NewServeMux()
	d.Register(mux, "")
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/fleet/heartbeat", "application/json",
		strings.NewReader(`{"worker":"w99"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown worker heartbeat status = %d, want 410", resp.StatusCode)
	}
}

// TestSpecNameFigure5 checks that Figure 5's nine alternate-path
// policies (REC/RS/RU at nostop, stop and fetch, 8, 16 and 32) give
// nine distinct cell names, and that a preset's own policy keeps the
// figure-legend name.
func TestSpecNameFigure5(t *testing.T) {
	spec := func(f config.Features) Spec {
		return Spec{Machine: config.Big216(), Features: f, Workloads: []string{"go", "li"}}
	}
	seen := map[string]bool{}
	for _, p := range []config.AltPolicy{config.AltNoStop, config.AltStop, config.AltFetch} {
		for _, n := range []int{8, 16, 32} {
			f := config.RECRSRU
			f.AltPolicy, f.AltLimit = p, n
			name := spec(f).Name()
			if seen[name] {
				t.Errorf("two Figure 5 cells named %q", name)
			}
			seen[name] = true
		}
	}
	for f, want := range map[config.Features]string{
		config.RECRSRU: "big.2.16/REC/RS/RU/go+li",
		config.SMT:     "big.2.16/SMT/go+li",
	} {
		if got := spec(f).Name(); got != want {
			t.Errorf("preset cell named %q, want %q", got, want)
		}
	}
}
