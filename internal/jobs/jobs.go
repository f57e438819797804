// Package jobs is the HTTP/JSON job layer that turns the simulator
// into a service: clients submit sweeps of simulation cells, poll
// their status, and stream per-cell results, while the server dedupes
// identical cells across concurrent clients through the durable
// content-addressed store (internal/store) and executes misses
// through the fleet dispatcher (internal/fleet), in-process or on
// attached workers.
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
// Every non-2xx reply is the JSON error body both HTTP APIs share
// (fleet.WriteError); the Client reads it back as an *APIError.
//
// Every job carries a request-scoped trace (internal/obs/trace): a
// span buffer bounded at admission records the whole service
// path — per-cell queue wait, store lookup (hit/mem/corrupt),
// single-flight waits, the compute with its leases, requeues, and
// local attempt, and NDJSON stream delivery — and clients propagate
// their own trace IDs with the Recycle-Trace-Id header.  Completed spans feed the per-stage
// latency histograms WriteServiceMetrics appends to /metrics.
//
// A cell is a fleet.Spec, keyed by Spec.Key and computed by
// fleet.Execute — the same type, key, and executor cmd/experiments
// uses locally, so a CLI -checkpoint directory and a daemon -store
// directory are one cache.  Results served from the store are
// byte-identical to a direct library run with the same configuration
// — enforced by the witness tests in this package — and each distinct
// cell is simulated exactly once no matter how many concurrent jobs
// request it (store single-flight dedupes in-process, the durable
// record dedupes across time).
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recyclesim/internal/fleet"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
)

// TraceHeader is the HTTP header a client sets on POST /jobs to
// propagate its own trace ID (16 hex digits); without it the server
// mints one.  The assigned ID comes back in the submit response and
// the job status.
const TraceHeader = "Recycle-Trace-Id"

// CellSpec identifies one simulation cell on the wire.  It is the
// fleet's Spec: the machine and feature structs travel in full (not by
// name), so custom knob combinations sweep through the service exactly
// like presets, and the store key is content-addressed on the actual
// configuration.
type CellSpec = fleet.Spec

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
	// Fleet computes every cell the store misses: workers compute
	// leased cells, and the dispatcher falls back to in-process
	// execution when none are attached.  A failed compute fails the
	// cell once; it is not retried.  nil builds a dispatcher with no
	// workers.  Store-level dedupe is unchanged — the dispatcher sits
	// inside the single-flight compute callback.
	Fleet *fleet.Dispatcher
	// Auth, when non-nil, guards the job API with bearer-token
	// authentication, per-client in-flight-cell quotas, and request
	// rate limits (401/429 replies with the JSON error body).
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
}

// Server owns the job table and executes submitted sweeps.
type Server struct {
	ctx   context.Context
	store *store.Store
	cfg   Config
	log   *slog.Logger
	gate  *gate // nil when cfg.Auth is nil (open service)

	mu   sync.Mutex
	jobs []*job // in submission order: jobs[i] is "j<i+1>"

	agg sweep.Aggregate
	lat latencies

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
	if cfg.Fleet == nil {
		cfg.Fleet = fleet.NewDispatcher(fleet.Config{})
	}
	s := &Server{ctx: ctx, store: st, cfg: cfg, log: log,
		agg: sweep.Aggregate{Name: "recycled running aggregate"}}
	if cfg.Auth != nil {
		s.gate = newGate(*cfg.Auth)
	}
	return s
}

// Register mounts the job API onto mux, guarded by the admission gate
// when Config.Auth is set.
func (s *Server) Register(mux fleet.Registrar) {
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	if err == nil && len(req.Cells) == 0 {
		err = errors.New("no cells")
	}
	if err != nil {
		fleet.WriteError(w, &APIError{Status: http.StatusBadRequest, Code: fleet.CodeBadRequest,
			Message: "bad request: " + err.Error()})
		return
	}
	client := clientFrom(r.Context())
	if s.gate != nil {
		if ok, inflight := s.gate.admitCells(client, len(req.Cells)); !ok {
			fleet.WriteError(w, &APIError{Status: http.StatusTooManyRequests, Code: CodeOverQuota,
				Message: fmt.Sprintf("in-flight cell quota exceeded: %d in flight + %d requested > limit %d",
					inflight, len(req.Cells), s.gate.cfg.MaxInFlightCells)})
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
	fleet.WriteJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "trace": tid.String()})
}

// newJob registers a job and opens its trace: the span limit is fixed
// at admission (root + per-cell worst case of cell, queue, one
// lookup, compute, put, and stream delivery, plus the most spans the
// dispatcher's Compute adds under compute), so no span a job records
// is dropped, while the buffer grows only to the spans it records.
func (s *Server) newJob(cells []CellSpec, tid trace.ID) *job {
	j := &job{cells: cells, state: "running"}
	j.cond = sync.NewCond(&j.mu)
	j.trace = trace.New(tid, 2+len(cells)*(6+s.cfg.Fleet.MaxComputeSpans()))
	j.trace.SetOnEnd(s.lat.observe)
	s.mu.Lock()
	j.id = fmt.Sprintf("j%d", len(s.jobs)+1)
	s.jobs = append(s.jobs, j)
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

// lookup returns the job the request's {id} names, or answers 404 and
// returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && n >= 1 && n <= len(s.jobs) && s.jobs[n-1].id == id {
		return s.jobs[n-1]
	}
	fleet.WriteError(w, &APIError{Status: http.StatusNotFound, Code: fleet.CodeNotFound, Message: "no such job"})
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		fleet.WriteJSON(w, http.StatusOK, j.status())
	}
}

// handleList lists every job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := s.jobs // append-only: the first len(jobs) entries never change
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	fleet.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	fleet.WriteJSON(w, http.StatusOK, s.store.Counters())
}

// handleTrace exports a job's request trace as Chrome trace_event
// JSON, loadable in Perfetto.  Traces of running jobs export too —
// open spans are closed against "now" and flagged.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
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
	j := s.lookup(w, r)
	if j == nil {
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
			s.cfg.Progress.StartCell(j.cells[i].Name())
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
			s.cfg.Publish(s.agg.Add(res.Stats, res.Metrics))
		}
		cc := j.cellCtx[i]
		if res.Cached {
			cc.Uint("cached", 1)
		}
		if res.Error != "" {
			cc.Str("error", res.Error)
			s.log.Warn("cell failed", "job", j.id, "trace", j.trace.ID().String(),
				"cell", res.Index, "name", j.cells[i].Name(), "error", res.Error)
		}
		j.mu.Lock()
		j.results = append(j.results, res)
		switch {
		case res.Error != "":
			j.failed++
			j.errs = append(j.errs, fmt.Sprintf("cell %d (%s): %s", res.Index, j.cells[i].Name(), res.Error))
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
	// Every cell has finished, so the counts are final.  The job is
	// logged and counted before waiters see it done, so a client that
	// saw it finish and then shut the server down finds the record.
	j.mu.Lock()
	hits, computes, failed := j.hits, j.computes, j.failed
	j.mu.Unlock()
	j.root.End()
	s.jobsDone.Add(1)
	s.log.Info("job done", "job", j.id, "trace", j.trace.ID().String(),
		"cells", len(j.cells), "hits", hits, "computes", computes, "failed", failed,
		"elapsed", j.trace.Elapsed().String())
	j.mu.Lock()
	j.state = "done"
	j.cond.Broadcast()
	j.mu.Unlock()
}

// runCell keys one cell and serves it from the store or computes it
// through the dispatcher; tc is the cell's span, under which the store
// phases and compute attempts land.
func (s *Server) runCell(c CellSpec, idx int, tc trace.Ctx) CellResult {
	key, err := c.Key()
	if err != nil {
		return CellResult{Index: idx, Error: err.Error()}
	}
	rec, cached, err := s.store.GetOrCompute(key, tc, func(cs trace.Ctx) (*store.Record, error) {
		return s.cfg.Fleet.Compute(s.ctx, c, cs)
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
