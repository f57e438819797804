package fleet

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"recyclesim/internal/store"
)

// Registrar is the handler-mounting surface the fleet dispatcher and
// the job server mount onto; *http.ServeMux and
// *internal/obs/server.Server both satisfy it.
type Registrar interface {
	Handle(pattern string, handler http.Handler)
}

// Wire types of the worker protocol; RegisterInfo and Grant are the
// register and lease replies.  Durations travel as milliseconds so the
// protocol has no dependency on Go duration encoding.
type registerRequest struct {
	Name     string `json:"name"`
	Parallel int    `json:"parallel"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms"`
}

type heartbeatRequest struct {
	Worker string   `json:"worker"`
	Leases []uint64 `json:"leases"`
}

type completeRequest struct {
	Worker string        `json:"worker"`
	Lease  uint64        `json:"lease"`
	Record *store.Record `json:"record,omitempty"`
	Error  string        `json:"error,omitempty"`
}

type completeResponse struct {
	Stale bool `json:"stale"`
}

type deregisterRequest struct {
	Worker string `json:"worker"`
}

// maxLeaseWait caps server-side long-poll parking so a worker that
// vanishes mid-poll cannot pin a handler goroutine for long.
const maxLeaseWait = 30 * time.Second

// Register mounts the worker protocol on mux under /fleet/.  When
// token is non-empty every endpoint requires "Authorization: Bearer
// <token>" — the fleet side of the service's trust boundary (client
// auth lives in the jobs package).
func (d *Dispatcher) Register(mux Registrar, token string) {
	guard := func(h http.HandlerFunc) http.Handler {
		if token == "" {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got := r.Header.Get("Authorization")
			want := "Bearer " + token
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				http.Error(w, `{"error":"unauthorized","code":"unauthorized"}`, http.StatusUnauthorized)
				return
			}
			h(w, r)
		})
	}
	mux.Handle("POST /fleet/register", guard(d.handleRegister))
	mux.Handle("POST /fleet/lease", guard(d.handleLease))
	mux.Handle("POST /fleet/heartbeat", guard(d.handleHeartbeat))
	mux.Handle("POST /fleet/complete", guard(d.handleComplete))
	mux.Handle("POST /fleet/deregister", guard(d.handleDeregister))
	mux.Handle("GET /fleet/workers", guard(d.handleWorkers))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// workerStatusCode maps dispatcher errors to HTTP: an unknown worker
// gets 410 Gone, telling the client to re-register (its state was
// reaped, or it never existed).
func workerStatusCode(err error) int {
	if errors.Is(err, ErrUnknownWorker) {
		return http.StatusGone
	}
	return http.StatusInternalServerError
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad register body: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, d.RegisterWorker(req.Name, req.Parallel))
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad lease body: "+err.Error(), http.StatusBadRequest)
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	g, err := d.Lease(r.Context(), req.Worker, wait)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		http.Error(w, err.Error(), workerStatusCode(err))
		return
	}
	if g == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad heartbeat body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := d.Heartbeat(req.Worker, req.Leases); err != nil {
		http.Error(w, err.Error(), workerStatusCode(err))
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (d *Dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad complete body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Record == nil && req.Error == "" {
		http.Error(w, "complete needs a record or an error", http.StatusBadRequest)
		return
	}
	stale := d.Complete(req.Worker, req.Lease, req.Record, req.Error)
	writeJSON(w, http.StatusOK, completeResponse{Stale: stale})
}

func (d *Dispatcher) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad deregister body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := d.Deregister(req.Worker); err != nil {
		http.Error(w, err.Error(), workerStatusCode(err))
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (d *Dispatcher) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Workers())
}
