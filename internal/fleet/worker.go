package fleet

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"recyclesim/internal/backoff"
	"recyclesim/internal/store"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// BaseURL of the recycled daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Name labels the worker in the daemon's listings and logs.
	Name string
	// Token, when non-empty, is sent as "Authorization: Bearer" on
	// every request (must match the daemon's -worker-token).
	Token string
	// Parallel is how many cells to compute concurrently (default 1).
	Parallel int
	// Compute executes one cell; defaults to Execute.  The chaos
	// harness swaps in stallable/killable computes here.
	Compute func(ctx context.Context, spec Spec) (*store.Record, error)
	// HTTP is the client used for all requests (default
	// http.DefaultClient); the chaos harness injects a partitioning
	// RoundTripper.
	HTTP *http.Client
	// PollWait is the long-poll window per lease request (default 5s).
	PollWait time.Duration
	// Log receives worker lifecycle records; nil discards them.
	Log *slog.Logger
}

// Worker is the worker-side half of the fleet protocol: it registers
// with the daemon, long-polls for leases on Parallel pullers, keeps
// its leases renewed from one heartbeat goroutine, and reports each
// cell's record (or compute error) back.  On shutdown it deregisters,
// and the daemon requeues every cell it still holds at once instead of
// waiting out the lease TTL.
type Worker struct {
	cfg WorkerConfig
	log *slog.Logger

	mu       sync.Mutex
	id       string
	beat     time.Duration
	holding  map[uint64]bool
	computes uint64
}

// NewWorker builds a worker; it does not contact the daemon until Run.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Compute == nil {
		cfg.Compute = Execute
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 5 * time.Second
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return &Worker{cfg: cfg, log: log, holding: make(map[uint64]bool)}
}

// Computes returns how many cells this worker has computed (for tests
// and the worker's own shutdown log line).
func (w *Worker) Computes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.computes
}

// post sends one worker-protocol request; ctx bounds it.  A nil out
// discards the reply body; a non-2xx reply comes back as *APIError.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	req, err := NewRequest(ctx, http.MethodPost, w.cfg.BaseURL+path, w.cfg.Token, in)
	if err != nil {
		return err
	}
	return Do(w.cfg.HTTP, req, out)
}

// register joins (or re-joins) the fleet, retrying with backoff until
// ctx is done.
func (w *Worker) register(ctx context.Context) error {
	rnd := backoff.Rand(1)
	for attempt := 0; ; attempt++ {
		var resp RegisterInfo
		err := w.post(ctx, "/fleet/register", registerRequest{Name: w.cfg.Name, Parallel: w.cfg.Parallel}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.Worker
			w.beat = time.Duration(resp.HeartbeatMS) * time.Millisecond
			if w.beat <= 0 {
				w.beat = time.Second
			}
			w.holding = make(map[uint64]bool)
			w.mu.Unlock()
			w.log.Info("registered", "worker", resp.Worker, "heartbeat", w.beat.String())
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Warn("register failed; retrying", "err", err.Error())
		if serr := backoff.Sleep(ctx, backoff.Delay(200*time.Millisecond, 5*time.Second, attempt, rnd)); serr != nil {
			return serr
		}
	}
}

// workerID returns the current registration ID.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// heartbeatLoop renews held leases every beat until ctx is done.  It
// ignores a 410 (ErrUnknownWorker): the pullers' next lease call gets
// the same reply and re-registers, and the loop beats with the new ID
// from then on.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		beat := w.beat
		w.mu.Unlock()
		if err := backoff.Sleep(ctx, beat); err != nil {
			return
		}
		w.mu.Lock()
		id := w.id
		leases := make([]uint64, 0, len(w.holding))
		//simlint:ignore determinism -- heartbeat listing order is irrelevant
		for l := range w.holding {
			leases = append(leases, l)
		}
		w.mu.Unlock()
		_ = w.post(ctx, "/fleet/heartbeat", heartbeatRequest{Worker: id, Leases: leases}, nil)
	}
}

// Run is the worker main loop: register, then pull-compute-complete on
// Parallel pullers until ctx is done, re-registering whenever the
// daemon disowns us.  It returns when ctx is done, after deregistering
// (on a short detached timeout, so shutdown still completes when the
// daemon is unreachable), which requeues every cell it still held.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	go w.heartbeatLoop(ctx)

	var regMu sync.Mutex // serializes re-registration across pullers
	reregister := func(oldID string) {
		regMu.Lock()
		defer regMu.Unlock()
		if w.workerID() != oldID {
			return // another puller already re-registered
		}
		w.log.Warn("disowned by daemon; re-registering", "old_worker", oldID)
		_ = w.register(ctx)
	}

	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.pullLoop(ctx, reregister)
		}()
	}
	wg.Wait()

	// Graceful exit: deregistering makes the dispatcher requeue every
	// lease we hold at once.  ctx is already done, so use a short
	// detached timeout.
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.post(dctx, "/fleet/deregister", deregisterRequest{Worker: w.workerID()}, nil)
	w.log.Info("worker stopped", "computes", w.Computes())
	return ctx.Err()
}

// pullLoop is one puller: long-poll a lease, compute, complete.
func (w *Worker) pullLoop(ctx context.Context, reregister func(oldID string)) {
	rnd := backoff.Rand(2)
	errStreak := 0
	for {
		if ctx.Err() != nil {
			return
		}
		id := w.workerID()
		var g Grant
		err := w.post(ctx, "/fleet/lease", leaseRequest{Worker: id, WaitMS: w.cfg.PollWait.Milliseconds()}, &g)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, ErrUnknownWorker) {
				reregister(id)
				errStreak = 0
				continue
			}
			errStreak++
			w.log.Warn("lease poll failed", "err", err.Error())
			if serr := backoff.Sleep(ctx, backoff.Delay(100*time.Millisecond, 3*time.Second, errStreak-1, rnd)); serr != nil {
				return
			}
			continue
		}
		errStreak = 0
		if g.Lease == 0 {
			continue // long-poll timeout (204): poll again
		}
		w.serve(ctx, id, g)
	}
}

// serve computes one leased cell and reports the outcome.
func (w *Worker) serve(ctx context.Context, id string, g Grant) {
	w.mu.Lock()
	w.holding[g.Lease] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.holding, g.Lease)
		w.mu.Unlock()
	}()
	w.log.Debug("leased cell", "lease", g.Lease, "cell", g.Spec.Name())
	rec, err := w.cfg.Compute(ctx, g.Spec)
	req := completeRequest{Worker: id, Lease: g.Lease}
	if err != nil {
		if ctx.Err() != nil {
			// Shutting down mid-compute: Run's deregistration gives
			// the cell back; our cancellation is no compute failure.
			return
		}
		req.Error = err.Error()
	} else {
		req.Record = rec
		w.mu.Lock()
		w.computes++
		w.mu.Unlock()
	}
	cctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	var cr completeResponse
	if cerr := w.post(cctx, "/fleet/complete", req, &cr); cerr != nil {
		w.log.Warn("complete failed", "lease", g.Lease, "err", cerr.Error())
		return
	}
	if cr.Stale {
		w.log.Info("completion was stale (lease expired or requeued)", "lease", g.Lease)
	}
}
