package jobs

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"recyclesim/internal/fleet"
)

// clientKey carries the authenticated client identity from the gate
// middleware to handleSubmit's quota check.
type clientKey struct{}

func withClient(ctx context.Context, client string) context.Context {
	return context.WithValue(ctx, clientKey{}, client)
}

func clientFrom(ctx context.Context) string {
	client, _ := ctx.Value(clientKey{}).(string)
	return client
}

// AuthConfig is the admission-control boundary for untrusted clients:
// bearer-token authentication, a per-client in-flight-cell quota, and
// a per-client request rate limit.  Zero fields disable the
// corresponding control, so the default (nil Auth in Config) keeps
// the historical open behavior for trusted localhost deployments.
type AuthConfig struct {
	// Tokens, when non-empty, requires "Authorization: Bearer <token>"
	// on every job-API request, with <token> in this list.  The token
	// is also the client's identity for quotas and rate limits; with
	// no tokens configured, identity falls back to the remote host.
	Tokens []string
	// MaxInFlightCells caps how many not-yet-finished cells one client
	// may have across all its jobs; a submit that would exceed it gets
	// 429 over_quota without perturbing the jobs already running.
	MaxInFlightCells int
	// RatePerSec refills each client's request token bucket; Burst is
	// its capacity (default: ceil(RatePerSec), min 1).  Zero RatePerSec
	// disables rate limiting.
	RatePerSec float64
	Burst      int

	// now is the rate limiter's clock, injectable by tests.
	now func() time.Time
}

// gate enforces AuthConfig on the job API: it authenticates each
// request, applies the per-client rate limit, and tracks per-client
// in-flight cells for the submit quota.
type gate struct {
	cfg AuthConfig
	now func() time.Time

	mu      sync.Mutex
	clients map[string]*clientState
	swept   time.Time // when stateLocked last dropped idle entries
}

// clientState is one client's admission accounting.
type clientState struct {
	inflight int       // cells submitted but not yet finished
	tokens   float64   // rate-limit bucket level
	last     time.Time // last bucket refill
}

func newGate(cfg AuthConfig) *gate {
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.RatePerSec)
		if float64(cfg.Burst) < cfg.RatePerSec {
			cfg.Burst++
		}
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &gate{cfg: cfg, now: now, clients: make(map[string]*clientState)}
}

// identify authenticates the request and returns the client identity:
// the presented token when token auth is on, the remote host
// otherwise.  ok=false means the 401 has been written.
func (g *gate) identify(w http.ResponseWriter, r *http.Request) (string, bool) {
	if len(g.cfg.Tokens) > 0 {
		return fleet.Authenticate(w, r, g.cfg.Tokens)
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return host, true
}

// stateLocked returns (creating if needed) the client's accounting
// record.  Before it adds a client, and at most once per time a bucket
// takes to refill from empty, it drops every idle entry, so the table
// holds the clients with cells in flight and those seen within about
// two refill times.  Caller holds g.mu.
func (g *gate) stateLocked(client string, now time.Time) *clientState {
	st := g.clients[client]
	if st == nil {
		if g.cfg.RatePerSec > 0 && now.Sub(g.swept).Seconds()*g.cfg.RatePerSec >= float64(g.cfg.Burst) {
			for c, s := range g.clients {
				if g.idle(s, now) {
					delete(g.clients, c)
				}
			}
			g.swept = now
		}
		st = &clientState{tokens: float64(g.cfg.Burst), last: now}
		g.clients[client] = st
	}
	return st
}

// idle reports whether st equals the entry stateLocked would create at
// now: nothing in flight and its bucket refilled to Burst.  Dropping
// such an entry changes no admission decision.
func (g *gate) idle(st *clientState, now time.Time) bool {
	return st.inflight == 0 &&
		(g.cfg.RatePerSec <= 0 || st.tokens+now.Sub(st.last).Seconds()*g.cfg.RatePerSec >= float64(g.cfg.Burst))
}

// allowRate takes one request token from the client's bucket,
// reporting how long until a token is available when it is empty.
func (g *gate) allowRate(client string) (bool, time.Duration) {
	if g.cfg.RatePerSec <= 0 {
		return true, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	st := g.stateLocked(client, now)
	st.tokens += now.Sub(st.last).Seconds() * g.cfg.RatePerSec
	if max := float64(g.cfg.Burst); st.tokens > max {
		st.tokens = max
	}
	st.last = now
	if st.tokens >= 1 {
		st.tokens--
		return true, 0
	}
	wait := time.Duration((1 - st.tokens) / g.cfg.RatePerSec * float64(time.Second))
	return false, wait
}

// admitCells reserves n in-flight cells for the client, refusing when
// the quota would be exceeded (returning the current in-flight count).
func (g *gate) admitCells(client string, n int) (bool, int) {
	if g.cfg.MaxInFlightCells <= 0 {
		return true, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	st := g.stateLocked(client, now)
	if st.inflight+n > g.cfg.MaxInFlightCells {
		if g.idle(st, now) {
			delete(g.clients, client)
		}
		return false, st.inflight
	}
	st.inflight += n
	return true, st.inflight
}

// releaseCells returns quota as the client's cells finish.
func (g *gate) releaseCells(client string, n int) {
	if g.cfg.MaxInFlightCells <= 0 || n <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	st := g.stateLocked(client, now)
	st.inflight = max(st.inflight-n, 0)
	if g.idle(st, now) {
		delete(g.clients, client)
	}
}

// wrap guards one handler with authentication and the rate limit.
// The submit quota is applied inside handleSubmit (it needs the parsed
// cell count), via the identity wrap stashes in the request context.
func (g *gate) wrap(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		client, ok := g.identify(w, r)
		if !ok {
			return
		}
		if ok, wait := g.allowRate(client); !ok {
			fleet.WriteError(w, &APIError{Status: http.StatusTooManyRequests, Code: CodeRateLimited,
				Message: "request rate limit exceeded", RetryAfter: wait})
			return
		}
		h(w, r.WithContext(withClient(r.Context(), client)))
	})
}
