package fleet

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// The pieces both HTTP APIs of the service share: the fleet's worker
// protocol and the job API (internal/jobs) reply, authenticate, call
// and count through these, so each API says each of these things once.

// Registrar is the handler-mounting surface the fleet dispatcher and
// the job server mount onto; *http.ServeMux and
// *internal/obs/server.Server both satisfy it.
type Registrar interface {
	Handle(pattern string, handler http.Handler)
}

// Codes of the JSON error body every non-2xx reply of either API
// carries.
const (
	CodeBadRequest    = "bad_request"    // 400: unparseable or incomplete request
	CodeUnauthorized  = "unauthorized"   // 401: missing or unknown bearer token
	CodeNotFound      = "not_found"      // 404: no such job
	CodeUnknownWorker = "unknown_worker" // 410: re-register (ErrUnknownWorker)
	CodeOverQuota     = "over_quota"     // 429: in-flight cell quota exhausted
	CodeRateLimited   = "rate_limited"   // 429: request rate limit tripped
	CodeInternal      = "internal"       // 500
)

// Sentinel errors an *APIError unwraps to by its code, so callers can
// branch with errors.Is regardless of message wording.
var (
	ErrUnauthorized = errors.New("unauthorized")
	ErrOverQuota    = errors.New("in-flight cell quota exceeded")
	ErrRateLimited  = errors.New("rate limited")
)

// APIError is a non-2xx reply of either API: WriteError sends one, and
// Do turns one back into an *APIError.
type APIError struct {
	Status     int           // HTTP status code
	Code       string        // one of the Code constants, or "" for a reply without the JSON body
	Message    string        // server-provided detail
	RetryAfter time.Duration // suggested wait before retrying (429 only)
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("server status %d", e.Status)
	if e.Code != "" {
		msg += " (" + e.Code + ")"
	}
	if e.Message != "" {
		msg += ": " + e.Message
	}
	return msg
}

// Unwrap maps the error code onto the sentinels.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case CodeUnknownWorker:
		return ErrUnknownWorker
	case CodeUnauthorized:
		return ErrUnauthorized
	case CodeOverQuota:
		return ErrOverQuota
	case CodeRateLimited:
		return ErrRateLimited
	}
	return nil
}

// errorBody is the JSON document of every non-2xx reply.
type errorBody struct {
	Error      string `json:"error"`
	Code       string `json:"code"`
	RetryAfter int64  `json:"retry_after_ms,omitempty"`
}

// WriteJSON writes v as a JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes e as the reply: its status, the JSON error body,
// and, when it suggests a wait, a Retry-After header (whole seconds,
// rounded up) alongside the body's millisecond field.
func WriteError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((e.RetryAfter+time.Second-1)/time.Second), 10))
	}
	WriteJSON(w, e.Status, errorBody{Error: e.Message, Code: e.Code, RetryAfter: e.RetryAfter.Milliseconds()})
}

// Authenticate is the one bearer-token check of both APIs.  With no
// tokens every request passes; otherwise the request must carry
// "Authorization: Bearer <token>" with <token> in tokens, and is
// answered 401 when it does not (ok false).  It returns the token
// presented.
func Authenticate(w http.ResponseWriter, r *http.Request, tokens []string) (token string, ok bool) {
	if len(tokens) == 0 {
		return "", true
	}
	if tok, isBearer := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); isBearer {
		for _, want := range tokens {
			if subtle.ConstantTimeCompare([]byte(tok), []byte(want)) == 1 {
				return tok, true
			}
		}
	}
	WriteError(w, &APIError{Status: http.StatusUnauthorized, Code: CodeUnauthorized,
		Message: "missing or invalid bearer token"})
	return "", false
}

// NewRequest builds a request of either API: in, when non-nil, is its
// JSON body, and token, when non-empty, its bearer token.
func NewRequest(ctx context.Context, method, url, token string, in any) (*http.Request, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return req, nil
}

// Do sends req on hc (nil means http.DefaultClient) and reads a 2xx
// reply's body into out: nil discards it, a func(io.Reader) error
// consumes it, anything else is decoded from JSON.  A 204 reply has no
// body to read.  Any other status comes back as an *APIError.
func Do(hc *http.Client, req *http.Request, out any) error {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var body errorBody
		if json.Unmarshal(msg, &body) != nil || body.Code == "" {
			body = errorBody{Error: strings.TrimSpace(string(msg))}
		}
		return &APIError{Status: resp.StatusCode, Code: body.Code, Message: body.Error,
			RetryAfter: time.Duration(body.RetryAfter) * time.Millisecond}
	}
	switch out := out.(type) {
	case nil:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	case func(io.Reader) error:
		return out(resp.Body)
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// writeCounters renders a counters struct as Prometheus text, one line
// per field in field order, named by prefix and the field's JSON tag:
// a uint64 field is a counter, "<prefix><tag>_total <n>", and an int64
// field a gauge, "<prefix><tag> <n>".
func writeCounters(w io.Writer, prefix string, counters any) {
	v := reflect.ValueOf(counters)
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Tag.Get("json")
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			fmt.Fprintf(w, "%s_total %d\n", name, f.Uint())
		case reflect.Int64:
			fmt.Fprintf(w, "%s %d\n", name, f.Int())
		}
	}
}
