package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/stats"
	"recyclesim/internal/store"
)

// TestAuthBearerToken is the table-driven 401 witness: with token auth
// on, every credential shape gets the right status and typed code, and
// the Go client surfaces ErrUnauthorized.
func TestAuthBearerToken(t *testing.T) {
	_, client := newTestService(t, t.TempDir(), Config{
		Workers: 1,
		Auth:    &AuthConfig{Tokens: []string{"s3cret", "other-tenant"}},
	})
	cells := []CellSpec{detailedCell(config.SMT, []string{"compress"}, 1000)}

	cases := []struct {
		name     string
		token    string
		header   string // overrides the Authorization header when set
		wantErr  error
		wantCode string
	}{
		{name: "no token", wantErr: ErrUnauthorized, wantCode: CodeUnauthorized},
		{name: "wrong token", token: "wrong", wantErr: ErrUnauthorized, wantCode: CodeUnauthorized},
		{name: "not bearer", header: "Basic s3cret", wantErr: ErrUnauthorized, wantCode: CodeUnauthorized},
		{name: "valid token", token: "s3cret"},
		{name: "second tenant token", token: "other-tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.header != "" {
				// Raw request: the client always sends Bearer form.
				req, _ := http.NewRequest(http.MethodGet, client.BaseURL+"/jobs", nil)
				req.Header.Set("Authorization", tc.header)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusUnauthorized {
					t.Fatalf("status = %d, want 401", resp.StatusCode)
				}
				var body struct{ Error, Code string }
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Code != tc.wantCode || body.Error == "" {
					t.Fatalf("error body = %+v, %v; want code %q", body, err, tc.wantCode)
				}
				return
			}
			c := *client
			c.Token = tc.token
			id, err := c.Submit(context.Background(), JobRequest{Cells: cells})
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Submit with valid token: %v", err)
				}
				awaitJob(t, &c, id)
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Submit err = %v, want %v", err, tc.wantErr)
			}
			var ae *APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusUnauthorized || ae.Code != tc.wantCode {
				t.Fatalf("APIError = %+v, want status 401 code %q", ae, tc.wantCode)
			}
		})
	}
}

// blockingFleet builds a dispatcher whose (zero-worker) local compute
// parks until release is closed — deterministic in-flight control for
// the quota tests.
func blockingFleet(release <-chan struct{}) *fleet.Dispatcher {
	return fleet.NewDispatcher(fleet.Config{
		Local: func(ctx context.Context, spec fleet.Spec) (*store.Record, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &store.Record{Stats: &stats.Sim{}}, nil
		},
	})
}

// TestQuotaOverLimit covers the 429 over_quota path: a submit that
// would exceed the per-client in-flight cell cap is refused with the
// typed error, in-flight jobs are untouched, and finished cells return
// quota.
func TestQuotaOverLimit(t *testing.T) {
	release := make(chan struct{})
	_, client := newTestService(t, t.TempDir(), Config{
		Workers: 2,
		Fleet:   blockingFleet(release),
		Auth:    &AuthConfig{Tokens: []string{"tenant-a"}, MaxInFlightCells: 2},
	})
	client.Token = "tenant-a"
	ctx := context.Background()

	// One request over the whole quota: refused outright, typed.
	_, err := client.Submit(ctx, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1000),
		detailedCell(config.TME, []string{"compress"}, 1000),
		detailedCell(config.RECRSRU, []string{"compress"}, 1000),
	}})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("3-cell submit err = %v, want ErrOverQuota", err)
	}

	// Fill the quota with a job whose cells are deterministically
	// parked in flight.
	id, err := client.Submit(ctx, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1000),
		detailedCell(config.TME, []string{"compress"}, 1000),
	}})
	if err != nil {
		t.Fatalf("quota-filling submit: %v", err)
	}

	// The next cell is over quota; the running job must not notice.
	_, err = client.Submit(ctx, JobRequest{Cells: []CellSpec{
		detailedCell(config.RECRSRU, []string{"compress"}, 1000),
	}})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-quota submit err = %v, want ErrOverQuota", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != CodeOverQuota {
		t.Fatalf("APIError = %+v, want status 429 code over_quota", ae)
	}
	if st, err := client.Status(ctx, id); err != nil || st.State != "running" || st.Failed != 0 {
		t.Fatalf("in-flight job perturbed by refused submit: %+v, %v", st, err)
	}

	// Let the parked cells finish; their quota comes back.
	close(release)
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = client.StreamResults(ctx, id, func(CellResult) error { return nil }) }()
	done.Wait()
	st, err := client.Status(ctx, id)
	if err != nil || st.State != "done" || st.Failed != 0 {
		t.Fatalf("blocked job never finished cleanly: %+v, %v", st, err)
	}
	id, err = client.Submit(ctx, JobRequest{Cells: []CellSpec{
		detailedCell(config.RECRSRU, []string{"compress"}, 1000),
	}})
	if err != nil {
		t.Fatalf("submit after quota release: %v", err)
	}
	awaitJob(t, client, id)
}

// TestRateLimit covers the 429 rate_limited path with a fake clock:
// the bucket admits Burst requests, refuses the next with a
// Retry-After hint, and refills with time.
func TestRateLimit(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	_, client := newTestService(t, t.TempDir(), Config{
		Workers: 1,
		Auth:    &AuthConfig{RatePerSec: 1, Burst: 2, now: now},
	})
	ctx := context.Background()

	list := func() error { return client.do(ctx, http.MethodGet, "/jobs", nil, nil) }
	for i := 0; i < 2; i++ {
		if err := list(); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	err := list()
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted err = %v, want ErrRateLimited", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests ||
		ae.Code != CodeRateLimited || ae.RetryAfter <= 0 {
		t.Fatalf("APIError = %+v, want 429 rate_limited with RetryAfter", ae)
	}
	advance(time.Second)
	if err := list(); err != nil {
		t.Fatalf("request after refill: %v", err)
	}
}

// TestGateForgetsIdleClients: without tokens a client is its remote
// host, so the gate sees one client per address.  After 1,000 distinct
// addresses pass through a rate-limited gate with a quota, some of them
// holding cells in flight, and every bucket has had time to refill, the
// next new client leaves the table holding only the clients with cells
// in flight and itself.  Releasing a client's last cells, or refusing a
// submit that holds none, forgets it at once.
func TestGateForgetsIdleClients(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	g := newGate(AuthConfig{RatePerSec: 2, Burst: 3, MaxInFlightCells: 4, now: func() time.Time { return clock }})
	h := g.wrap(func(http.ResponseWriter, *http.Request) {})
	pass := func(addr string) {
		t.Helper()
		r := httptest.NewRequest(http.MethodGet, "/jobs", nil)
		r.RemoteAddr = addr + ":4242"
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", addr, w.Code)
		}
	}
	var holding []string
	for i := 0; i < 1_000; i++ {
		addr := fmt.Sprintf("10.0.%d.%d", i/250, i%250)
		pass(addr)
		if i%100 == 0 {
			if ok, _ := g.admitCells(addr, 2); !ok {
				t.Fatalf("%s: 2 cells refused under a quota of 4", addr)
			}
			holding = append(holding, addr)
		}
		clock = clock.Add(time.Millisecond)
	}
	clock = clock.Add(time.Minute)
	pass("10.9.9.9")
	if n := len(g.clients); n > len(holding)+1 {
		t.Fatalf("gate holds %d clients after every bucket refilled, want at most %d in flight plus 1", n, len(holding)+1)
	}
	for _, addr := range holding {
		if g.clients[addr] == nil {
			t.Fatalf("%s: forgot a client with cells in flight", addr)
		}
	}

	g.releaseCells(holding[0], 2)
	if g.clients[holding[0]] != nil {
		t.Error("a refilled client whose last cells finished is still tracked")
	}
	if ok, _ := g.admitCells("10.9.9.8", 5); ok || g.clients["10.9.9.8"] != nil {
		t.Errorf("a submit over the whole quota was admitted (%v) or left its client tracked", ok)
	}
}

// TestOpenServiceUnaffected: with no Auth config the historical open
// behavior survives — no Authorization header needed anywhere.
func TestOpenServiceUnaffected(t *testing.T) {
	_, client := newTestService(t, t.TempDir(), Config{Workers: 1})
	resp, err := http.Get(client.BaseURL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open GET /jobs status = %d, want 200", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("unexpected content type %q", resp.Header.Get("Content-Type"))
	}
}
