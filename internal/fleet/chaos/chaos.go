// Package chaos is the deterministic fault-injection harness for the
// fleet's robustness witnesses: it boots a complete in-process service
// (job server + dispatcher + durable store on one httptest listener)
// and any number of in-process workers, each with its own kill switch,
// network partition valve, and compute stall gate — so tests can kill,
// stall, or partition workers mid-sweep on an exact schedule, advance
// a fake clock, and reap leases manually instead of waiting out
// wall-clock TTLs.
//
// The invariants the witnesses assert on top of this harness:
// sweeps complete no matter which workers die; each distinct cell is
// computed into the store exactly once (stale results from dead leases
// are dropped, never double-stored); results are byte-identical on 0,
// 1, or N workers; and worker churn leaks no goroutines.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"recyclesim/internal/fleet"
	"recyclesim/internal/jobs"
	"recyclesim/internal/store"
)

// Clock is a manually advanced time source shared by the dispatcher
// (lease deadlines, worker liveness) and the test schedule.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock starts at a fixed instant, so fault schedules are
// reproducible run to run.
func NewClock() *Clock { return &Clock{now: time.Unix(1_700_000_000, 0)} }

func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// ErrPartitioned is what a partitioned worker's requests fail with.
var ErrPartitioned = errors.New("chaos: network partitioned")

// network is a RoundTripper valve: while dropped, every request fails
// without reaching the daemon (a symmetric partition).
type network struct {
	base    http.RoundTripper
	dropped atomic.Bool
}

func (n *network) RoundTrip(req *http.Request) (*http.Response, error) {
	if n.dropped.Load() {
		return nil, ErrPartitioned
	}
	return n.base.RoundTrip(req)
}

// Options tunes the harness service.  The rest is fixed for fast
// tests: a 10s lease TTL (fake-clock seconds, so symbolic), 2 job
// workers per job, and open job and fleet APIs.
type Options struct {
	MaxRequeues int // fleet.Config.MaxRequeues (default 3)
}

// Harness is one in-process service instance under test control.
type Harness struct {
	Clock      *Clock
	Dispatcher *fleet.Dispatcher
	Jobs       *jobs.Server
	Store      *store.Store
	Client     *jobs.Client
	URL        string

	ts *httptest.Server

	mu      sync.Mutex
	workers []*WorkerHandle
	nworker int
}

// New boots the service over a store rooted at dir.
func New(dir string, opts Options) (*Harness, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	clk := NewClock()
	disp := fleet.NewDispatcher(fleet.Config{
		LeaseTTL:    10 * time.Second,
		MaxRequeues: opts.MaxRequeues,
		Now:         clk.Now,
	})
	js := jobs.NewServer(context.Background(), st, jobs.Config{Workers: 2, Fleet: disp})
	mux := http.NewServeMux()
	js.Register(mux)
	disp.Register(mux, "")
	ts := httptest.NewServer(mux)
	return &Harness{
		Clock:      clk,
		Dispatcher: disp,
		Jobs:       js,
		Store:      st,
		Client:     jobs.NewClient(ts.URL),
		URL:        ts.URL,
		ts:         ts,
	}, nil
}

// Close stops every worker gracefully and shuts the service down.
func (h *Harness) Close() {
	h.mu.Lock()
	workers := append([]*WorkerHandle(nil), h.workers...)
	h.mu.Unlock()
	for _, w := range workers {
		w.Stop()
	}
	h.ts.Close()
}

// Reap advances the fake clock and runs one reaper pass — the
// deterministic stand-in for waiting out lease TTLs.
func (h *Harness) Reap(advance time.Duration) int {
	h.Clock.Advance(advance)
	return h.Dispatcher.Reap()
}

// WaitWorkers blocks until exactly n workers are registered (or the
// timeout passes, returning false) — registration is asynchronous, so
// tests gate their submits on it.
func (h *Harness) WaitWorkers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if int(h.Dispatcher.Counters().Workers) == n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// WorkerHandle is one in-process worker under test control.
type WorkerHandle struct {
	Name string

	// Started receives each cell name as the worker's compute begins
	// (buffered, never blocking the compute), so tests can schedule a
	// fault exactly mid-compute.
	Started <-chan string

	h       *Harness
	net     *network
	tr      *http.Transport
	stalled atomic.Bool
	gateMu  sync.Mutex
	resume  chan struct{}
	cancel  context.CancelFunc
	done    chan struct{}
	worker  *fleet.Worker
}

// resumeGate snapshots the current stall-release channel.
func (w *WorkerHandle) resumeGate() <-chan struct{} {
	w.gateMu.Lock()
	defer w.gateMu.Unlock()
	return w.resume
}

// StartWorker boots one worker attached to the harness daemon.
func (h *Harness) StartWorker(parallel int) *WorkerHandle {
	h.mu.Lock()
	h.nworker++
	name := fmt.Sprintf("chaos-w%d", h.nworker)
	h.mu.Unlock()

	started := make(chan string, 64)
	// A private transport per worker, so tearing the worker down can
	// also drain its keep-alive connections (the leak witness counts
	// goroutines).
	tr := http.DefaultTransport.(*http.Transport).Clone()
	wh := &WorkerHandle{
		Name:    name,
		Started: started,
		h:       h,
		net:     &network{base: tr},
		tr:      tr,
		resume:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	wh.worker = fleet.NewWorker(fleet.WorkerConfig{
		BaseURL:  h.URL,
		Name:     name,
		Parallel: parallel,
		PollWait: 50 * time.Millisecond,
		HTTP:     &http.Client{Transport: wh.net},
		Compute: func(ctx context.Context, spec fleet.Spec) (*store.Record, error) {
			select {
			case started <- spec.Name():
			default:
			}
			if wh.stalled.Load() {
				// A stalled compute hangs until the worker dies or the
				// test resumes it — the hung-compute scenario the
				// lease lifetime cap (20x the TTL) exists for.
				select {
				case <-wh.resumeGate():
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fleet.Execute(ctx, spec)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	wh.cancel = cancel
	go func() {
		_ = wh.worker.Run(ctx)
		close(wh.done)
	}()
	h.mu.Lock()
	h.workers = append(h.workers, wh)
	h.mu.Unlock()
	return wh
}

// Computes reports how many cells this worker finished.
func (w *WorkerHandle) Computes() uint64 { return w.worker.Computes() }

// Stall makes every subsequent compute hang until Resume (in-flight
// computes past the gate finish normally).
func (w *WorkerHandle) Stall() { w.stalled.Store(true) }

// Resume releases every stalled compute and clears the stall.
func (w *WorkerHandle) Resume() {
	w.stalled.Store(false)
	w.gateMu.Lock()
	close(w.resume)
	w.resume = make(chan struct{})
	w.gateMu.Unlock()
}

// Partition cuts (or heals) the worker's network: while cut, leases,
// heartbeats, and completions all fail to reach the daemon.
func (w *WorkerHandle) Partition(cut bool) { w.net.dropped.Store(cut) }

// Kill hard-kills the worker mid-whatever: the network drops first so
// the shutdown path cannot deregister — exactly what a SIGKILL or
// machine loss looks like to the daemon (silence).
func (w *WorkerHandle) Kill() {
	w.net.dropped.Store(true)
	w.cancel()
	<-w.done
	w.tr.CloseIdleConnections()
}

// Stop shuts the worker down gracefully: it deregisters, so its cells
// requeue without waiting for lease expiry.
func (w *WorkerHandle) Stop() {
	select {
	case <-w.done:
		return // already dead
	default:
	}
	w.cancel()
	<-w.done
	w.tr.CloseIdleConnections()
}
