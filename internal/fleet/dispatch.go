package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"recyclesim/internal/obs/trace"
	"recyclesim/internal/store"
)

// ErrUnknownWorker is returned by Lease/Heartbeat/Complete for a
// worker ID the dispatcher does not know (never registered, or reaped
// after going silent).  The HTTP layer maps it to 410 Gone and the
// worker client re-registers.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// Config tunes a Dispatcher.  The zero value works: defaults are
// filled in by NewDispatcher.
//
// The failure policy is one sentence: a lost lease requeues, and a
// compute error is final.  A cell's record is a pure function of its
// Spec, so computing a failed cell again would fail the same way.
type Config struct {
	// Local computes a cell in-process: the fallback when no workers
	// are attached (or a cell has exhausted its requeue budget).
	// Defaults to Execute.
	Local func(ctx context.Context, spec Spec) (*store.Record, error)

	// LeaseTTL bounds the time between heartbeat renewals of one
	// remote compute (default 30s).  A lease not renewed within it is
	// expired and its cell requeued.  It also sets the two derived
	// limits: renewals never extend one lease past 20*LeaseTTL from its
	// grant, so a hung compute on a healthily-heartbeating worker still
	// gets requeued; and a worker not heard from (lease, heartbeat,
	// complete) for 2*LeaseTTL is declared dead, its leases requeued
	// and its later results dropped as stale.
	LeaseTTL time.Duration
	// MaxRequeues bounds how many times one cell survives
	// infrastructure failures (lease expiry, worker death or
	// departure) before the dispatcher stops trusting the fleet with
	// it and computes it locally (default 3).
	MaxRequeues int

	// Now is the deterministic clock injection point for tests
	// (fleet/chaos drives lease expiry with a fake clock); it must be
	// safe for concurrent use.  Defaults to time.Now.
	Now func() time.Time

	// Log receives dispatcher lifecycle records; nil discards them.
	Log *slog.Logger
}

// Counters is a snapshot of the dispatcher's accounting.  Its field
// types are its /metrics schema: the int64 fields are gauges, printed
// as svc_fleet_<tag>, and the uint64 fields count events, printed as
// svc_fleet_<tag>_total.
type Counters struct {
	Workers        int64  `json:"workers"`
	QueueDepth     int64  `json:"queue_depth"`
	Registers      uint64 `json:"registers"`
	Departs        uint64 `json:"departs"`
	WorkersLost    uint64 `json:"workers_lost"`
	LeasesGranted  uint64 `json:"leases_granted"`
	LeasesExpired  uint64 `json:"leases_expired"`
	Requeues       uint64 `json:"requeues"`
	StaleResults   uint64 `json:"stale_results"`
	RemoteComputes uint64 `json:"remote_computes"`
	RemoteErrors   uint64 `json:"remote_errors"`
	LocalComputes  uint64 `json:"local_computes"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
}

// roundKind classifies the outcome of one remote round of a cell.
type roundKind int

const (
	roundOK       roundKind = iota // worker returned a record
	roundErr                       // worker reported a compute error
	roundFallback                  // fleet gave up on this cell: compute locally
)

type roundResult struct {
	kind   roundKind
	rec    *store.Record
	errMsg string
}

// task is one cell currently owned by the fleet: queued, leased, or
// being delivered.  All fields are guarded by the dispatcher mutex
// except ch, which is buffered and written exactly once per round.
type task struct {
	seq      uint64
	spec     Spec
	tc       trace.Ctx
	requeues int

	queued    bool
	lease     *lease
	abandoned bool
	ch        chan roundResult
}

// lease is one grant of a task to a worker.
type lease struct {
	id       uint64
	t        *task
	w        *worker
	granted  time.Time
	deadline time.Time
	span     trace.Ctx
}

// worker is one registered remote worker process.
type worker struct {
	id       string
	name     string
	parallel int
	joined   time.Time
	lastSeen time.Time
	leases   map[uint64]*lease
}

// Grant is the reply to a successful Lease: one cell under one lease.
// It is also the /fleet/lease reply body.
type Grant struct {
	Lease uint64 `json:"lease"`
	Spec  Spec   `json:"spec"`
}

// WorkerStatus is one row of the /fleet/workers listing.
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Parallel int    `json:"parallel"`
	Leases   int    `json:"leases"`
	AgeSec   int64  `json:"age_sec"`
	IdleSec  int64  `json:"idle_sec"`
}

// RegisterInfo is the reply to a worker registration, on the wire as
// it is: the assigned ID and the heartbeat cadence in milliseconds.
type RegisterInfo struct {
	Worker      string `json:"worker"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// Dispatcher owns the fleet: registered workers, the queue of
// unleased cells, and every outstanding lease.  A cell reaches a worker
// only from the queue: a parked Lease call wakes when a cell is queued
// and takes the head itself.  All methods are safe for concurrent use.
type Dispatcher struct {
	cfg Config
	log *slog.Logger

	mu        sync.Mutex
	workers   map[string]*worker
	leases    map[uint64]*lease
	queue     []*task
	wake      chan struct{} // closed and replaced when a cell is queued
	workerSeq uint64
	taskSeq   uint64
	leaseSeq  uint64
	count     Counters // the event counts; Counters fills in the two gauges
}

// NewDispatcher builds a dispatcher; zero cfg fields get defaults.
func NewDispatcher(cfg Config) *Dispatcher {
	if cfg.Local == nil {
		cfg.Local = Execute
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return &Dispatcher{
		cfg:     cfg,
		log:     log,
		workers: make(map[string]*worker),
		leases:  make(map[uint64]*lease),
		wake:    make(chan struct{}),
	}
}

// Counters returns a snapshot of the accounting.
func (d *Dispatcher) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.count
	c.Workers, c.QueueDepth = int64(len(d.workers)), int64(len(d.queue))
	return c
}

// MaxComputeSpans returns the most trace spans one Compute can add
// under its cell's span: a lease and a requeue per round over
// MaxRequeues+1 rounds, plus one local "attempt".
func (d *Dispatcher) MaxComputeSpans() int { return 2*(d.cfg.MaxRequeues+1) + 1 }

// Workers lists the registered workers for diagnostics.
func (d *Dispatcher) Workers() []WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	out := make([]WorkerStatus, 0, len(d.workers))
	//simlint:ignore determinism -- diagnostic listing, sorted by the caller if needed
	for _, w := range d.workers {
		out = append(out, WorkerStatus{
			ID:       w.id,
			Name:     w.name,
			Parallel: w.parallel,
			Leases:   len(w.leases),
			AgeSec:   int64(now.Sub(w.joined).Seconds()),
			IdleSec:  int64(now.Sub(w.lastSeen).Seconds()),
		})
	}
	return out
}

// RegisterWorker admits a worker and returns its assigned ID plus the
// heartbeat cadence that keeps its leases alive (a third of LeaseTTL).
func (d *Dispatcher) RegisterWorker(name string, parallel int) RegisterInfo {
	if parallel <= 0 {
		parallel = 1
	}
	d.mu.Lock()
	d.workerSeq++
	w := &worker{
		id:       fmt.Sprintf("w%d", d.workerSeq),
		name:     name,
		parallel: parallel,
		joined:   d.cfg.Now(),
		lastSeen: d.cfg.Now(),
		leases:   make(map[uint64]*lease),
	}
	d.workers[w.id] = w
	d.count.Registers++
	d.mu.Unlock()
	d.log.Info("worker registered", "worker", w.id, "name", name, "parallel", parallel)
	return RegisterInfo{Worker: w.id, HeartbeatMS: (d.cfg.LeaseTTL / 3).Milliseconds()}
}

// Deregister removes a worker gracefully: its outstanding leases are
// requeued immediately (no expiry wait) and later results dropped.  It
// is how a stopping worker gives back the cells it still holds.
func (d *Dispatcher) Deregister(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	d.removeWorkerLocked(w, "worker-departed")
	d.count.Departs++
	d.log.Info("worker departed", "worker", workerID)
	return nil
}

// Heartbeat refreshes a worker's liveness and renews the listed
// leases.  Renewal extends a lease by LeaseTTL but never past
// 20*LeaseTTL from its grant, so a hung compute cannot hold a cell
// forever.
func (d *Dispatcher) Heartbeat(workerID string, leaseIDs []uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	now := d.cfg.Now()
	w.lastSeen = now
	for _, id := range leaseIDs {
		l := w.leases[id]
		if l == nil {
			continue // expired and requeued; the worker learns via stale Complete
		}
		deadline := now.Add(d.cfg.LeaseTTL)
		if cap := l.granted.Add(20 * d.cfg.LeaseTTL); deadline.After(cap) {
			deadline = cap
		}
		l.deadline = deadline
	}
	return nil
}

// Lease hands the worker the queue's head cell under a fresh lease,
// long-polling up to wait when the queue is empty (nil Grant on
// timeout, the context's error when it ends first; either way nothing
// was taken).  The worker must Complete the lease or keep it renewed by
// heartbeat; otherwise the cell is requeued at the deadline.
func (d *Dispatcher) Lease(ctx context.Context, workerID string, wait time.Duration) (*Grant, error) {
	var timeout <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d.mu.Lock()
		w := d.workers[workerID]
		if w == nil {
			d.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = d.cfg.Now()
		if len(d.queue) > 0 {
			t := d.queue[0]
			d.queue = d.queue[1:]
			t.queued = false
			g := d.grantLocked(w, t)
			d.mu.Unlock()
			return g, nil
		}
		wake := d.wake
		d.mu.Unlock()
		if wait <= 0 {
			return nil, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timeout:
			return nil, nil
		}
	}
}

// grantLocked creates a lease of t to w.  Caller holds d.mu.
func (d *Dispatcher) grantLocked(w *worker, t *task) *Grant {
	now := d.cfg.Now()
	d.leaseSeq++
	l := &lease{
		id:       d.leaseSeq,
		t:        t,
		w:        w,
		granted:  now,
		deadline: now.Add(d.cfg.LeaseTTL),
	}
	l.span = t.tc.Start("lease").Str("worker", w.id).Uint("lease", l.id)
	t.lease = l
	w.leases[l.id] = l
	d.leases[l.id] = l
	d.count.LeasesGranted++
	d.log.Debug("lease granted", "worker", w.id, "lease", l.id, "cell", t.spec.Name())
	return &Grant{Lease: l.id, Spec: t.spec}
}

// Complete reports one lease's outcome: a record, or a compute error
// when errMsg is non-empty.  A completion for a lease the dispatcher
// no longer tracks — expired, worker declared dead or departed, cell
// already requeued — is dropped as stale; the caller learns via the
// return value, and exactly-once storage is preserved because only the
// current leaseholder's result is delivered.
func (d *Dispatcher) Complete(workerID string, leaseID uint64, rec *store.Record, errMsg string) (stale bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w := d.workers[workerID]; w != nil {
		w.lastSeen = d.cfg.Now()
	}
	l := d.leases[leaseID]
	if l == nil || l.w.id != workerID {
		d.count.StaleResults++
		d.log.Debug("stale completion dropped", "worker", workerID, "lease", leaseID)
		return true
	}
	d.detachLeaseLocked(l)
	t := l.t
	if errMsg != "" {
		l.span.Str("error", errMsg).End()
		d.count.RemoteErrors++
		d.deliverLocked(t, roundResult{kind: roundErr, errMsg: errMsg})
		return false
	}
	l.span.End()
	d.count.RemoteComputes++
	d.deliverLocked(t, roundResult{kind: roundOK, rec: rec})
	return false
}

// detachLeaseLocked unlinks a lease from its worker, task, and the
// global table.  Caller holds d.mu.
func (d *Dispatcher) detachLeaseLocked(l *lease) {
	delete(d.leases, l.id)
	delete(l.w.leases, l.id)
	if l.t.lease == l {
		l.t.lease = nil
	}
}

// deliverLocked hands the round result to the waiting Compute, unless
// it abandoned the task (context cancellation).  Caller holds d.mu.
func (d *Dispatcher) deliverLocked(t *task, r roundResult) {
	if t.abandoned {
		return
	}
	t.ch <- r
}

// requeueLocked returns a task to service after an infrastructure
// failure: back onto the queue head while its requeue budget lasts,
// otherwise — or when no workers remain — delivered as a local-compute
// fallback.  Caller holds d.mu.
func (d *Dispatcher) requeueLocked(t *task, reason string) {
	if t.abandoned {
		return
	}
	t.requeues++
	d.count.Requeues++
	t.tc.Start("requeue").Str("reason", reason).Uint("requeues", uint64(t.requeues)).End()
	d.log.Info("cell requeued", "cell", t.spec.Name(), "reason", reason, "requeues", t.requeues)
	if t.requeues > d.cfg.MaxRequeues || len(d.workers) == 0 {
		d.count.LocalFallbacks++
		d.deliverLocked(t, roundResult{kind: roundFallback, errMsg: reason})
		return
	}
	d.queue = append([]*task{t}, d.queue...)
	d.queuedLocked(t)
}

// queuedLocked marks t queued and wakes every parked Lease call.
// Caller holds d.mu.
func (d *Dispatcher) queuedLocked(t *task) {
	t.queued = true
	close(d.wake)
	d.wake = make(chan struct{})
}

// removeWorkerLocked drops a worker and requeues everything it held.
// When the last worker leaves, the queue is flushed to local compute.
// Caller holds d.mu.
func (d *Dispatcher) removeWorkerLocked(w *worker, reason string) {
	delete(d.workers, w.id)
	for _, l := range w.leases {
		delete(d.leases, l.id)
		if l.t.lease == l {
			l.t.lease = nil
		}
		l.span.Str("end", reason).End()
		d.count.LeasesExpired++
		d.requeueLocked(l.t, reason)
	}
	w.leases = make(map[uint64]*lease)
	if len(d.workers) == 0 {
		for _, t := range d.queue {
			t.queued = false
			d.count.LocalFallbacks++
			d.deliverLocked(t, roundResult{kind: roundFallback, errMsg: "no workers attached"})
		}
		d.queue = nil
	}
}

// expireLeaseLocked requeues one lease's task without touching the
// worker's liveness.  Caller holds d.mu.
func (d *Dispatcher) expireLeaseLocked(l *lease, reason string) {
	d.detachLeaseLocked(l)
	l.span.Str("end", reason).End()
	d.count.LeasesExpired++
	d.requeueLocked(l.t, reason)
}

// Reap expires overdue leases and declares silent workers dead,
// requeueing their cells.  It is called periodically by the goroutine
// StartReaper launches, and directly by tests (with an injected clock)
// for deterministic fault schedules.  It returns how many leases were
// requeued.
func (d *Dispatcher) Reap() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	n := 0
	var lost []*worker
	//simlint:ignore determinism -- requeue order does not affect results (the store dedupes)
	for _, w := range d.workers {
		if now.Sub(w.lastSeen) > 2*d.cfg.LeaseTTL {
			lost = append(lost, w)
		}
	}
	for _, w := range lost {
		n += len(w.leases)
		d.count.WorkersLost++
		d.log.Warn("worker lost", "worker", w.id, "name", w.name, "leases", len(w.leases),
			"silent", now.Sub(w.lastSeen).String())
		d.removeWorkerLocked(w, "worker-lost")
	}
	var overdue []*lease
	//simlint:ignore determinism -- requeue order does not affect results (the store dedupes)
	for _, l := range d.leases {
		if now.After(l.deadline) {
			overdue = append(overdue, l)
		}
	}
	for _, l := range overdue {
		n++
		d.log.Warn("lease expired", "worker", l.w.id, "lease", l.id, "cell", l.t.spec.Name())
		d.expireLeaseLocked(l, "lease-expired")
	}
	return n
}

// StartReaper runs Reap every interval (default LeaseTTL/4) until ctx
// is done.
func (d *Dispatcher) StartReaper(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = d.cfg.LeaseTTL / 4
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				d.Reap()
			}
		}
	}()
}

// enqueue admits a cell to the fleet at the queue's tail.  ok is false
// when no workers are attached (the caller computes locally).
func (d *Dispatcher) enqueue(spec Spec, tc trace.Ctx) (*task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.workers) == 0 {
		return nil, false
	}
	d.taskSeq++
	t := &task{seq: d.taskSeq, spec: spec, tc: tc, ch: make(chan roundResult, 1)}
	d.queue = append(d.queue, t)
	d.queuedLocked(t)
	return t, true
}

// abandon detaches a task whose Compute gave up (context cancellation):
// it leaves the queue, and any in-flight lease is expired so the
// worker's eventual completion is dropped as stale.
func (d *Dispatcher) abandon(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.abandoned = true
	if t.queued {
		for i, q := range d.queue {
			if q == t {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
		t.queued = false
	}
	if l := t.lease; l != nil {
		d.detachLeaseLocked(l)
		l.span.Str("end", "abandoned").End()
	}
}

// Compute executes one cell through the fleet: dispatched to a worker
// under a lease when any are attached, computed in-process otherwise.
// Infrastructure failures (lease expiry, worker death/departure)
// requeue the cell transparently up to MaxRequeues, then degrade to
// one local compute.  A compute error, remote or local, is final.  tc
// is the cell's compute span; lease, requeue, and attempt children
// land under it.
func (d *Dispatcher) Compute(ctx context.Context, spec Spec, tc trace.Ctx) (*store.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t, ok := d.enqueue(spec, tc); ok {
		var r roundResult
		select {
		case r = <-t.ch:
		case <-ctx.Done():
			d.abandon(t)
			return nil, ctx.Err()
		}
		switch r.kind {
		case roundOK:
			return r.rec, nil
		case roundErr:
			return nil, errors.New(r.errMsg)
		}
		d.log.Info("cell degraded to local compute", "cell", spec.Name(), "reason", r.errMsg)
	}
	// No worker attached, or the fleet gave up on the cell: compute it
	// here under an "attempt" span (the schema the pre-fleet job server
	// recorded).
	d.mu.Lock()
	d.count.LocalComputes++
	d.mu.Unlock()
	at := tc.Start("attempt").Uint("attempt", 0)
	rec, err := d.cfg.Local(ctx, spec)
	if err != nil {
		at.Error(err).End()
		return nil, err
	}
	at.End()
	return rec, nil
}

// WriteMetrics appends the dispatcher's Prometheus text exposition
// (svc_fleet_* series), meant for obs/server.AppendMetrics alongside
// the job layer's metrics.
func (d *Dispatcher) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# fleet (distributed execution) metrics\n")
	writeCounters(w, "svc_fleet_", d.Counters())
}
