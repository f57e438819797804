package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"recyclesim/internal/store"
)

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
	var tokens []string
	if token != "" {
		tokens = []string{token}
	}
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, ok := Authenticate(w, r, tokens); ok {
				h(w, r)
			}
		}))
	}
	handle("POST /fleet/register", jsonHandler(func(r *http.Request, req registerRequest) (any, error) {
		return d.RegisterWorker(req.Name, req.Parallel), nil
	}))
	handle("POST /fleet/lease", jsonHandler(func(r *http.Request, req leaseRequest) (any, error) {
		wait := min(max(time.Duration(req.WaitMS)*time.Millisecond, 0), maxLeaseWait)
		g, err := d.Lease(r.Context(), req.Worker, wait)
		if g == nil {
			return nil, err // nil, nil: the long poll timed out (204)
		}
		return g, nil
	}))
	handle("POST /fleet/heartbeat", jsonHandler(func(r *http.Request, req heartbeatRequest) (any, error) {
		return struct{}{}, d.Heartbeat(req.Worker, req.Leases)
	}))
	handle("POST /fleet/complete", jsonHandler(func(r *http.Request, req completeRequest) (any, error) {
		if req.Record == nil && req.Error == "" {
			return nil, &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
				Message: "complete needs a record or an error"}
		}
		return completeResponse{Stale: d.Complete(req.Worker, req.Lease, req.Record, req.Error)}, nil
	}))
	handle("POST /fleet/deregister", jsonHandler(func(r *http.Request, req deregisterRequest) (any, error) {
		return struct{}{}, d.Deregister(req.Worker)
	}))
	handle("GET /fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, d.Workers())
	})
}

// jsonHandler adapts one worker-protocol call to HTTP: it decodes the
// JSON request body, calls f, and writes f's reply as JSON, a nil
// reply as 204 No Content, and an error as the JSON error body — an
// unknown worker as 410 Gone, which tells the worker to re-register.
// A call that failed because its client has gone gets no reply.
func jsonHandler[Req any](f func(r *http.Request, req Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
				Message: "bad request body: " + err.Error()})
			return
		}
		out, err := f(r, req)
		var ae *APIError
		switch {
		case err != nil && r.Context().Err() != nil:
		case errors.As(err, &ae):
			WriteError(w, ae)
		case errors.Is(err, ErrUnknownWorker):
			WriteError(w, &APIError{Status: http.StatusGone, Code: CodeUnknownWorker, Message: err.Error()})
		case err != nil:
			WriteError(w, &APIError{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()})
		case out == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			WriteJSON(w, http.StatusOK, out)
		}
	}
}
