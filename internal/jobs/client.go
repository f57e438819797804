package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"recyclesim/internal/fleet"
)

// The job API's errors are the ones both HTTP APIs share: a non-2xx
// reply comes back as an *APIError, which errors.Is matches against
// the sentinel of its code.
type APIError = fleet.APIError

// Codes of the job API's admission errors (401/429).
const (
	CodeUnauthorized = fleet.CodeUnauthorized
	CodeOverQuota    = fleet.CodeOverQuota
	CodeRateLimited  = fleet.CodeRateLimited
)

var (
	// ErrUnauthorized: the server requires a bearer token and the
	// client's was missing or wrong (HTTP 401).
	ErrUnauthorized = fleet.ErrUnauthorized
	// ErrOverQuota: the client's in-flight cell quota is exhausted
	// (HTTP 429, code over_quota); retry after cells finish.
	ErrOverQuota = fleet.ErrOverQuota
	// ErrRateLimited: the client's request rate limit tripped (HTTP
	// 429, code rate_limited); retry after APIError.RetryAfter.
	ErrRateLimited = fleet.ErrRateLimited
)

// Client talks to a recycled job server.  The zero HTTP client is
// http.DefaultClient; results stream over one long-lived GET, so no
// client-side timeout is set by default.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// TraceID, when non-empty, is sent in the Recycle-Trace-Id header
	// of every request, and a Submit adopts it as the job's trace ID,
	// so the server-side job trace carries an ID the client chose (and
	// can correlate with its own records).  Malformed values are
	// ignored by the server.
	TraceID string
	// Token, when non-empty, is sent as "Authorization: Bearer" on
	// every request — required when the server runs with -token.
	Token string
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8347", with or without a trailing slash).
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

// do sends one job-API request through fleet.Do: in, when non-nil,
// is the JSON body, and out receives the reply as fleet.Do reads it.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	req, err := fleet.NewRequest(ctx, method, c.BaseURL+path, c.Token, in)
	if err != nil {
		return err
	}
	if c.TraceID != "" {
		req.Header.Set(TraceHeader, c.TraceID)
	}
	return fleet.Do(c.HTTP, req, out)
}

// Submit posts a sweep and returns its job ID.
func (c *Client) Submit(ctx context.Context, jr JobRequest) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := c.do(ctx, http.MethodPost, "/jobs", jr, &out); err != nil {
		return "", err
	}
	if out.ID == "" {
		return "", fmt.Errorf("submit: server returned no job id")
	}
	return out.ID, nil
}

// FetchTrace downloads a job's Chrome trace_event JSON (the document
// GET /jobs/{id}/trace serves), ready to save and load in Perfetto.
func (c *Client) FetchTrace(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/trace", nil, func(r io.Reader) (err error) {
		raw, err = io.ReadAll(r)
		return err
	})
	return raw, err
}

// Status fetches one job's status document.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// StoreCounters fetches the server's store accounting.
func (c *Client) StoreCounters(ctx context.Context) (map[string]uint64, error) {
	var out map[string]uint64
	if err := c.do(ctx, http.MethodGet, "/storestats", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// StreamResults consumes a job's NDJSON result stream, invoking fn for
// every cell as it arrives; it returns when the server has sent every
// cell (the job is done), fn returns an error, or ctx is canceled.
func (c *Client) StreamResults(ctx context.Context, id string, fn func(CellResult) error) error {
	return c.do(ctx, http.MethodGet, "/jobs/"+id+"/results", nil, func(r io.Reader) error {
		dec := json.NewDecoder(r)
		for {
			var res CellResult
			if err := dec.Decode(&res); err != nil {
				if err == io.EOF {
					return nil
				}
				return fmt.Errorf("results stream: %w", err)
			}
			if err := fn(res); err != nil {
				return err
			}
		}
	})
}

// Run is the whole client workflow: submit the sweep, stream every
// result into fn, and return the job's final status.  Polling is not
// needed — the result stream itself blocks until the job is done —
// but the final status double-checks cell accounting.
func (c *Client) Run(ctx context.Context, jr JobRequest, fn func(CellResult) error) (*JobStatus, error) {
	id, err := c.Submit(ctx, jr)
	if err != nil {
		return nil, err
	}
	if err := c.StreamResults(ctx, id, fn); err != nil {
		return nil, err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.Done < st.Cells {
		return st, fmt.Errorf("job %s: stream ended with %d of %d cells", id, st.Done, st.Cells)
	}
	return st, nil
}

// WaitHealthy polls baseURL/healthz until it answers or the deadline
// passes — the handshake CLI clients use against a freshly started
// server.
func WaitHealthy(ctx context.Context, baseURL string, timeout time.Duration) error {
	base := strings.TrimRight(baseURL, "/")
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no healthy server at %s after %v", base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
