// Package jobs is the HTTP/JSON job layer that turns the simulator
// into a service: clients submit sweeps of simulation cells, poll
// their status, and stream per-cell results, while the server dedupes
// identical cells across concurrent clients through the durable
// content-addressed store (internal/store) and executes misses on the
// fault-isolated batch runner (recyclesim.RunBatchContext).
//
// Endpoints (mounted onto internal/obs/server via Register, so one
// listener also serves /metrics, /progress, /healthz, and pprof):
//
//	POST /jobs               submit a JobRequest; returns {"id": "j1",
//	                         "trace": "<16 hex digits>"}
//	GET  /jobs               list all job statuses
//	GET  /jobs/{id}          one job's JobStatus
//	GET  /jobs/{id}/results  NDJSON stream of CellResults, written as
//	                         cells land and ending when the job is done
//	GET  /jobs/{id}/trace    the job's request trace as Chrome
//	                         trace_event JSON (internal/obs/trace)
//	GET  /storestats         the store's Counters (hits/computes/...)
//
// Every job carries a request-scoped trace (internal/obs/trace): a
// span buffer preallocated at admission records the whole service
// path — per-cell queue wait, store lookup (hit/corrupt/recheck),
// single-flight waits, compute attempts with retries, and NDJSON
// stream delivery — and clients propagate their own trace IDs with
// the Recycle-Trace-Id header.  Completed spans feed the per-stage
// latency histograms WriteServiceMetrics appends to /metrics.
//
// Results served from the store are byte-identical to a direct
// RunBatch/RunSampled call with the same configuration — enforced by
// the witness tests in this package — and each distinct cell is
// simulated exactly once no matter how many concurrent jobs request
// it (store single-flight dedupes in-process, the durable record
// dedupes across time).
package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recyclesim"
	"recyclesim/internal/backoff"
	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

// TraceHeader is the HTTP header a client sets on POST /jobs to
// propagate its own trace ID (16 hex digits); without it the server
// mints one.  The assigned ID comes back in the submit response and
// the job status.
const TraceHeader = "Recycle-Trace-Id"

// SamplingSpec is the sampled-mode schedule of a cell.  Zero fields
// select the simulator defaults (period 20000, interval 1000, warmup
// 1000, confidence 0.95); the store key normalizes them, so default
// and spelled-out schedules share a record.
type SamplingSpec struct {
	Period      uint64  `json:"period,omitempty"`
	IntervalLen uint64  `json:"interval,omitempty"`
	WarmupLen   uint64  `json:"warmup,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
}

// CellSpec identifies one simulation cell.  The machine and feature
// structs travel in full (not by name), so custom knob combinations
// sweep through the service exactly like presets, and the store key is
// content-addressed on the actual configuration.
type CellSpec struct {
	Machine   config.Machine  `json:"machine"`
	Features  config.Features `json:"features"`
	Workloads []string        `json:"workloads"`
	// Insts is the committed-instruction budget (0 = 200_000).  The
	// cycle budget is fixed at the harness's 40x policy so service
	// results are byte-identical to cmd/experiments runs.
	Insts uint64 `json:"insts,omitempty"`
	// Sampling, when non-nil, makes this a sampled cell.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
}

// JobRequest is the POST /jobs body.
type JobRequest struct {
	Cells []CellSpec `json:"cells"`
}

// CellResult is one cell's outcome, streamed in completion order;
// Index maps it back to the submitted JobRequest.Cells slot.
type CellResult struct {
	Index  int    `json:"index"`
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached"` // served from the store or shared in flight
	Error  string `json:"error,omitempty"`

	Stats   *stats.Sim     `json:"stats,omitempty"`
	Metrics *obs.Metrics   `json:"metrics,omitempty"`
	Sampled *sample.Result `json:"sampled,omitempty"`
}

// JobStatus is the GET /jobs/{id} document.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" or "done"
	Cells int    `json:"cells"`
	Done  int    `json:"done"`
	// Hits counts cells served without simulating here: store records
	// (from this run or any earlier one) and single-flight shares of a
	// computation another job had in progress.
	Hits     int      `json:"hits"`
	Computes int      `json:"computes"`
	Failed   int      `json:"failed"`
	Errors   []string `json:"errors,omitempty"`
	// Trace is the job's trace ID; GET /jobs/{id}/trace exports it.
	Trace string `json:"trace,omitempty"`
}

// Config tunes a Server.
type Config struct {
	// Workers bounds per-job cell parallelism (<= 0 selects GOMAXPROCS).
	Workers int
	// Retries is the number of extra attempts a failed cell gets before
	// its error is recorded (cancellation is never retried).
	Retries int
	// RetryDelay and RetryDelayMax shape the capped exponential
	// backoff (with equal jitter) between a cell's retry attempts;
	// zero RetryDelay keeps retries immediate, zero RetryDelayMax
	// defaults to 64x the base.
	RetryDelay    time.Duration
	RetryDelayMax time.Duration
	// Fleet, when non-nil, routes cell computes through the
	// distributed dispatcher: workers compute leased cells, and the
	// dispatcher falls back to in-process execution when none are
	// attached.  Store-level dedupe is unchanged — the dispatcher sits
	// inside the single-flight compute callback.
	Fleet *fleet.Dispatcher
	// Auth, when non-nil, guards the job API with bearer-token
	// authentication, per-client in-flight-cell quotas, and request
	// rate limits (typed 401/429 replies).
	Auth *AuthConfig
	// Progress, when non-nil, receives per-cell progress across all
	// jobs (feeding the obs server's /progress endpoint).
	Progress *sweep.Progress
	// Publish, when non-nil, receives an immutable aggregate snapshot
	// after every completed detailed cell (feeding /metrics).
	Publish func(*obs.Snapshot)
	// Log receives the server's structured records (job lifecycle, cell
	// failures, stream disconnects).  nil discards them.
	Log *slog.Logger

	// retrySleep and retryRand inject the backoff timing and jitter
	// source for deterministic tests; nil selects backoff.Sleep and a
	// fixed-seed backoff.Rand per compute.
	retrySleep func(context.Context, time.Duration) error
	retryRand  func() float64
}

// Server owns the job table and executes submitted sweeps.
type Server struct {
	ctx   context.Context
	store *store.Store
	cfg   Config
	log   *slog.Logger
	gate  *gate // nil when cfg.Auth is nil (open service)

	mu   sync.Mutex
	seq  int
	jobs map[string]*job

	agg   aggregate
	lat   latencies
	mixes mixHashes

	jobsSubmitted atomic.Uint64
	jobsDone      atomic.Uint64
}

// job is one submitted sweep.  results appends in completion order
// under mu; cond wakes streaming readers on every append and on
// completion.
type job struct {
	id     string
	cells  []CellSpec
	client string // admission-gate identity; quota released per cell

	// The request trace: root is the whole-job span; cellCtx[i] and
	// queueCtx[i] are cell i's "cell" span (parent of its store/stream
	// spans) and its "queue" span (admission → worker pickup), all
	// opened at admission so queue wait is measured even for cells no
	// worker has touched yet.
	trace    *trace.Trace
	root     trace.Ctx
	cellCtx  []trace.Ctx
	queueCtx []trace.Ctx

	mu       sync.Mutex
	cond     *sync.Cond
	results  []CellResult
	state    string
	hits     int
	computes int
	failed   int
	errs     []string
}

// latencies accumulates per-stage service latency histograms (µs, log2
// buckets) from completed spans; WriteServiceMetrics renders them.
type latencies struct {
	mu    sync.Mutex
	hists map[string]*obs.Hist
}

func (l *latencies) observe(name string, dur time.Duration) {
	us := uint64(dur.Microseconds())
	l.mu.Lock()
	if l.hists == nil {
		l.hists = make(map[string]*obs.Hist)
	}
	h := l.hists[name]
	if h == nil {
		h = &obs.Hist{}
		l.hists[name] = h
	}
	h.Observe(us)
	l.mu.Unlock()
}

// snapshot returns the stage names (sorted) and private histogram
// copies, so rendering never holds the observation lock.
func (l *latencies) snapshot() ([]string, map[string]obs.Hist) {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.hists))
	out := make(map[string]obs.Hist, len(l.hists))
	//simlint:ignore determinism -- names are sorted before use
	for name, h := range l.hists {
		names = append(names, name)
		out[name] = *h
	}
	sort.Strings(names)
	return names, out
}

// mixHashCap bounds the mix-hash memo.  Clients choose the names lists,
// so the memo is cleared whenever it is full; the few distinct mixes a
// real sweep uses refill it on their next lookup.
const mixHashCap = 4096

// mixHashes memoizes store.HashPrograms(workload.MixPrograms(names)) per
// names list.  Within one binary a program is a pure function of its
// name (workload.ByName uses fixed seeds), so a list's hash never
// changes while the process runs, and serving a stored cell need not
// rebuild and re-hash its programs.  Lists that fail to resolve are
// never stored, nor is the empty list.
type mixHashes struct {
	mu     sync.Mutex
	hashes map[string]string // names joined by NUL -> workload hash
}

func (m *mixHashes) hash(names []string) (string, error) {
	key := strings.Join(names, "\x00")
	// A name containing the separator would alias another list; such a
	// name is unknown anyway, so it takes the resolving path and fails.
	memo := len(names) > 0 && strings.Count(key, "\x00") == len(names)-1
	if memo {
		m.mu.Lock()
		h, ok := m.hashes[key]
		m.mu.Unlock()
		if ok {
			return h, nil
		}
	}
	progs, err := workload.MixPrograms(names)
	if err != nil {
		return "", err
	}
	h := store.HashPrograms(progs)
	if memo {
		m.mu.Lock()
		if m.hashes == nil || len(m.hashes) >= mixHashCap {
			m.hashes = make(map[string]string)
		}
		m.hashes[key] = h
		m.mu.Unlock()
	}
	return h, nil
}

// aggregate accumulates every detailed cell the server computes or
// serves, building the immutable snapshots /metrics exposes.
type aggregate struct {
	mu    sync.Mutex
	stats stats.Sim
	tel   obs.Metrics
	cells int
}

func (a *aggregate) add(s *stats.Sim, m *obs.Metrics) *obs.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Add(s)
	a.tel.Add(m)
	a.cells++
	st := a.stats
	st.PerProgram = append([]uint64(nil), a.stats.PerProgram...)
	tel := a.tel
	return &obs.Snapshot{
		Name:    fmt.Sprintf("recycled running aggregate (%d cells)", a.cells),
		Stats:   &st,
		Metrics: &tel,
	}
}

// NewServer builds a job server over st.  ctx bounds every simulation
// the server runs: canceling it (shutdown) stops in-flight cells at
// their next poll and fails their jobs' remaining cells as canceled.
func NewServer(ctx context.Context, st *store.Store, cfg Config) *Server {
	if ctx == nil {
		ctx = context.Background()
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := &Server{ctx: ctx, store: st, cfg: cfg, log: log, jobs: make(map[string]*job)}
	if cfg.Auth != nil {
		s.gate = newGate(*cfg.Auth)
	}
	return s
}

// Registrar is the mux surface Register needs; *http.ServeMux and
// *internal/obs/server.Server both satisfy it.
type Registrar interface {
	Handle(pattern string, h http.Handler)
}

// Register mounts the job API onto mux, guarded by the admission gate
// when Config.Auth is set.
func (s *Server) Register(mux Registrar) {
	wrap := func(h http.HandlerFunc) http.Handler {
		if s.gate == nil {
			return h
		}
		return s.gate.wrap(h)
	}
	mux.Handle("POST /jobs", wrap(s.handleSubmit))
	mux.Handle("GET /jobs", wrap(s.handleList))
	mux.Handle("GET /jobs/{id}", wrap(s.handleStatus))
	mux.Handle("GET /jobs/{id}/results", wrap(s.handleResults))
	mux.Handle("GET /jobs/{id}/trace", wrap(s.handleTrace))
	mux.Handle("GET /storestats", wrap(s.handleStoreStats))
}

// StoreCounters exposes the underlying store accounting (tests and the
// CLI use it; HTTP clients use /storestats).
func (s *Server) StoreCounters() store.Counters { return s.store.Counters() }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Cells) == 0 {
		http.Error(w, "bad request: no cells", http.StatusBadRequest)
		return
	}
	client := clientFrom(r.Context())
	if s.gate != nil {
		if ok, inflight := s.gate.admitCells(client, len(req.Cells)); !ok {
			writeAPIError(w, http.StatusTooManyRequests, CodeOverQuota,
				fmt.Sprintf("in-flight cell quota exceeded: %d in flight + %d requested > limit %d",
					inflight, len(req.Cells), s.gate.cfg.MaxInFlightCells), 0)
			return
		}
	}
	tid, ok := trace.ParseID(r.Header.Get(TraceHeader))
	if !ok {
		tid = trace.NewID()
	}
	j := s.newJob(req.Cells, tid)
	j.client = client
	if s.cfg.Progress != nil {
		s.cfg.Progress.AddTotal(len(req.Cells))
	}
	s.jobsSubmitted.Add(1)
	s.log.Info("job submitted", "job", j.id, "trace", tid.String(),
		"cells", len(req.Cells), "propagated", ok)
	go s.runJob(j)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": j.id, "trace": tid.String()})
}

// newJob registers a job and opens its trace: the span buffer is sized
// once at admission (root + per-cell worst case of cell, queue, two
// lookups, flight wait, compute with per-attempt children, put, and
// stream delivery), so tracing never allocates while the job runs.
func (s *Server) newJob(cells []CellSpec, tid trace.ID) *job {
	j := &job{cells: cells, state: "running"}
	j.cond = sync.NewCond(&j.mu)
	// Worst case per cell adds a backoff span per retry, and the fleet
	// path adds lease/requeue spans per requeue round.
	j.trace = trace.New(tid, 2+len(cells)*(12+2*s.cfg.Retries))
	j.trace.SetOnEnd(s.lat.observe)
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.root = j.trace.Root("job").Uint("cells", uint64(len(cells)))
	j.cellCtx = make([]trace.Ctx, len(cells))
	j.queueCtx = make([]trace.Ctx, len(cells))
	for i := range cells {
		j.cellCtx[i] = j.root.Start("cell").Uint("index", uint64(i))
		j.queueCtx[i] = j.cellCtx[i].Start("queue")
	}
	return j
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	//simlint:ignore determinism -- ids are sorted by numeric suffix below
	for id := range s.jobs {
		ids = append(ids, id)
	}
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	// Jobs are "j<seq>"; sort by submission order for a stable listing.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && jobLess(out[k].ID, out[k-1].ID); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func jobLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.store.Counters())
}

// handleTrace exports a job's request trace as Chrome trace_event
// JSON, loadable in Perfetto.  Traces of running jobs export too —
// open spans are closed against "now" and flagged.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := j.trace.WriteChrome(w); err != nil {
		s.log.Warn("trace export failed", "job", j.id, "error", err.Error())
	}
}

// WriteServiceMetrics appends the job layer's Prometheus text
// exposition — job/cell gauges plus the per-stage service latency
// histograms fed by completed trace spans — and is meant to be
// registered with internal/obs/server.AppendMetrics so one /metrics
// scrape covers the simulator aggregate and the service.
func (s *Server) WriteServiceMetrics(w io.Writer) {
	bw := bufio.NewWriter(w)
	bw.WriteString("# service (job layer) metrics\n")
	fmt.Fprintf(bw, "svc_jobs_submitted %d\n", s.jobsSubmitted.Load())
	fmt.Fprintf(bw, "svc_jobs_done %d\n", s.jobsDone.Load())
	if p := s.cfg.Progress; p != nil {
		queued, inflight := p.Depths()
		fmt.Fprintf(bw, "svc_cells_queued %d\n", queued)
		fmt.Fprintf(bw, "svc_cells_inflight %d\n", inflight)
	}
	names, hists := s.lat.snapshot()
	for _, name := range names {
		h := hists[name]
		if name == "job" {
			obs.HistText(bw, "svc_job_latency_us", "", &h)
			continue
		}
		obs.HistText(bw, "svc_stage_latency_us", `stage="`+name+`"`, &h)
	}
	bw.Flush()
}

// handleResults streams a job's CellResults as NDJSON, flushing as
// cells land, until every cell has been written and the job is done.
// A disconnecting client cancels the request context; the AfterFunc
// broadcast (under the job lock, so a waiter between its ctx check and
// Wait cannot miss it) unblocks the cond wait and the handler returns
// instead of leaking a goroutine parked on a job nobody is reading.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	// Flush the headers before the first (possibly long) wait so the
	// client's request call returns as soon as the stream is open.
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.results) && j.state != "done" && ctx.Err() == nil {
			j.cond.Wait()
		}
		batch := j.results[next:]
		next = len(j.results)
		done := j.state == "done"
		j.mu.Unlock()
		if ctx.Err() != nil {
			s.log.Debug("results stream disconnected", "job", j.id,
				"trace", j.trace.ID().String(), "streamed", next-len(batch))
			return
		}
		for i := range batch {
			st := j.cellCtx[batch[i].Index].Start("stream")
			err := enc.Encode(&batch[i])
			st.End()
			if err != nil {
				return // client went away
			}
		}
		if fl != nil {
			fl.Flush()
		}
		if done {
			return
		}
	}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Cells:    len(j.cells),
		Done:     len(j.results),
		Hits:     j.hits,
		Computes: j.computes,
		Failed:   j.failed,
		Errors:   append([]string(nil), j.errs...),
		Trace:    j.trace.ID().String(),
	}
}

// runJob fans the job's cells out on the worker pool.  Each cell goes
// through the store's single-flight GetOrCompute, so cells shared with
// other running jobs (or already on disk) are never simulated twice.
func (s *Server) runJob(j *job) {
	sweep.Run(len(j.cells), s.cfg.Workers, func(i int) {
		j.queueCtx[i].End() // worker picked the cell up: queue wait over
		if s.cfg.Progress != nil {
			s.cfg.Progress.StartCell(cellName(j.cells[i]))
		}
		res := s.runCell(j.cells[i], i, j.cellCtx[i])
		if s.cfg.Progress != nil {
			var insts uint64
			if res.Stats != nil {
				insts = res.Stats.Committed
			} else if res.Sampled != nil {
				insts = res.Sampled.MeasuredInsts
			}
			s.cfg.Progress.FinishCell(insts)
		}
		if s.cfg.Publish != nil && res.Error == "" && res.Stats != nil {
			s.cfg.Publish(s.agg.add(res.Stats, res.Metrics))
		}
		cc := j.cellCtx[i]
		if res.Cached {
			cc.Uint("cached", 1)
		}
		if res.Error != "" {
			cc.Str("error", res.Error)
			s.log.Warn("cell failed", "job", j.id, "trace", j.trace.ID().String(),
				"cell", res.Index, "name", cellName(j.cells[i]), "error", res.Error)
		}
		j.mu.Lock()
		j.results = append(j.results, res)
		switch {
		case res.Error != "":
			j.failed++
			j.errs = append(j.errs, fmt.Sprintf("cell %d (%s): %s", res.Index, cellName(j.cells[i]), res.Error))
		case res.Cached:
			j.hits++
		default:
			j.computes++
		}
		j.cond.Broadcast()
		j.mu.Unlock()
		if s.gate != nil {
			s.gate.releaseCells(j.client, 1)
		}
		cc.End()
	})
	j.mu.Lock()
	j.state = "done"
	hits, computes, failed := j.hits, j.computes, j.failed
	j.cond.Broadcast()
	j.mu.Unlock()
	j.root.End()
	s.jobsDone.Add(1)
	s.log.Info("job done", "job", j.id, "trace", j.trace.ID().String(),
		"cells", len(j.cells), "hits", hits, "computes", computes, "failed", failed,
		"elapsed", j.trace.Elapsed().String())
}

// fleetSpec converts the wire cell spec into the dispatcher's unit of
// work (the shapes are intentionally identical; insts defaulting and
// the 40x cycle policy live in fleet.Execute so local and remote
// computes share one canonical executor).
func fleetSpec(c CellSpec) fleet.Spec {
	s := fleet.Spec{
		Machine:   c.Machine,
		Features:  c.Features,
		Workloads: c.Workloads,
		Insts:     c.Insts,
	}
	if c.Sampling != nil {
		s.Sampling = &fleet.Sampling{
			Period:      c.Sampling.Period,
			IntervalLen: c.Sampling.IntervalLen,
			WarmupLen:   c.Sampling.WarmupLen,
			Confidence:  c.Sampling.Confidence,
		}
	}
	return s
}

// backoffWait sleeps the capped exponential backoff before retry
// attempt (0-based), under a "backoff" span.  Zero RetryDelay is a
// no-op, preserving the historical immediate-retry behavior.
func (s *Server) backoffWait(attempt int, rnd func() float64, cs trace.Ctx) {
	if s.cfg.RetryDelay <= 0 {
		return
	}
	sleep := s.cfg.retrySleep
	if sleep == nil {
		sleep = backoff.Sleep
	}
	bs := cs.Start("backoff").Uint("attempt", uint64(attempt))
	_ = sleep(s.ctx, backoff.Delay(s.cfg.RetryDelay, s.cfg.RetryDelayMax, attempt, rnd))
	bs.End()
}

// retryJitter returns the jitter source for one cell's retry backoff.
func (s *Server) retryJitter() func() float64 {
	if s.cfg.retryRand != nil {
		return s.cfg.retryRand
	}
	if s.cfg.RetryDelay <= 0 {
		return nil
	}
	return backoff.Rand(0x9e3779b97f4a7c15)
}

// cellName renders a cell for progress display and error reports.
func cellName(c CellSpec) string {
	name := c.Machine.Name + "/" + config.FeatureName(c.Features) + "/" + strings.Join(c.Workloads, "+")
	if c.Sampling != nil {
		name = "sampled/" + name
	}
	return name
}

// cellKey content-addresses one cell with budget insts (already
// defaulted).  The workload hash comes from the server's mix memo, so
// the key is the one store.CellKey gives for freshly built programs.
func (s *Server) cellKey(c CellSpec, insts uint64) (string, error) {
	wh, err := s.mixes.hash(c.Workloads)
	if err != nil {
		return "", err
	}
	var sampKey *store.Sampling
	if c.Sampling != nil {
		sampKey = &store.Sampling{
			Period:      c.Sampling.Period,
			IntervalLen: c.Sampling.IntervalLen,
			WarmupLen:   c.Sampling.WarmupLen,
			Confidence:  c.Sampling.Confidence,
		}
	}
	return store.CellKey(c.Machine, c.Features, wh, insts, sampKey), nil
}

// runCell resolves, keys, and executes (or serves) one cell; tc is the
// cell's span, under which the store phases and compute attempts land.
func (s *Server) runCell(c CellSpec, idx int, tc trace.Ctx) CellResult {
	insts := c.Insts
	if insts == 0 {
		insts = 200_000
	}
	key, err := s.cellKey(c, insts)
	if err != nil {
		return CellResult{Index: idx, Error: err.Error()}
	}
	rec, cached, err := s.store.GetOrComputeTraced(key, tc, func(cs trace.Ctx) (*store.Record, error) {
		if s.cfg.Fleet != nil {
			return s.cfg.Fleet.Compute(s.ctx, fleetSpec(c), key, cs)
		}
		if c.Sampling != nil {
			return s.computeSampled(c, insts, cs)
		}
		return s.computeDetailed(c, insts, cs)
	})
	if err != nil {
		return CellResult{Index: idx, Key: key, Error: err.Error()}
	}
	return CellResult{
		Index:   idx,
		Key:     key,
		Cached:  cached,
		Stats:   rec.Stats,
		Metrics: rec.Metrics,
		Sampled: rec.Sampled,
	}
}

// computeDetailed runs one detailed cell on the fault-isolated batch
// runner: panics and livelocks come back as errors, never take the
// server down, and transient hook failures get cfg.Retries fresh
// attempts (with fresh telemetry each time, so a partially accumulated
// failed attempt never leaks into the stored record).
func (s *Server) computeDetailed(c CellSpec, insts uint64, cs trace.Ctx) (*store.Record, error) {
	rnd := s.retryJitter()
	for attempt := 0; ; attempt++ {
		at := cs.Start("attempt").Uint("attempt", uint64(attempt))
		tel := &obs.Metrics{Hists: true}
		res, err := recyclesim.RunBatchContext(s.ctx, []recyclesim.Options{{
			Machine:   c.Machine,
			Features:  c.Features,
			Workloads: c.Workloads,
			MaxInsts:  insts,
			MaxCycles: 40 * insts,
			Telemetry: tel,
		}}, recyclesim.BatchConfig{Workers: 1})
		if err == nil {
			at.End()
			return &store.Record{Stats: res[0], Metrics: tel}, nil
		}
		at.Error(err).End()
		if attempt >= s.cfg.Retries || errors.Is(err, recyclesim.ErrCanceled) || errors.Is(err, recyclesim.ErrDeadline) {
			return nil, err
		}
		s.backoffWait(attempt, rnd, cs)
	}
}

// computeSampled runs one sampled cell.  Workers is pinned to 1: the
// job's cells already fan out across the pool, and cell-level
// parallelism keeps results worker-count invariant (matching the
// cmd/experiments policy).
func (s *Server) computeSampled(c CellSpec, insts uint64, cs trace.Ctx) (*store.Record, error) {
	samp := recyclesim.Sampling{Workers: 1}
	if c.Sampling != nil {
		samp.Period = c.Sampling.Period
		samp.IntervalLen = c.Sampling.IntervalLen
		samp.WarmupLen = c.Sampling.WarmupLen
		samp.Confidence = c.Sampling.Confidence
	}
	rnd := s.retryJitter()
	for attempt := 0; ; attempt++ {
		at := cs.Start("attempt").Uint("attempt", uint64(attempt))
		res, err := recyclesim.RunSampledContext(s.ctx, recyclesim.Options{
			Machine:   c.Machine,
			Features:  c.Features,
			Workloads: c.Workloads,
			MaxInsts:  insts,
			Sampling:  &samp,
		})
		if err == nil {
			at.End()
			return &store.Record{Sampled: res}, nil
		}
		at.Error(err).End()
		if attempt >= s.cfg.Retries || errors.Is(err, recyclesim.ErrCanceled) || errors.Is(err, recyclesim.ErrDeadline) {
			return nil, err
		}
		s.backoffWait(attempt, rnd, cs)
	}
}
