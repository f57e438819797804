package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/jobs"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes the
// server goroutine and the test make.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestBadFlags(t *testing.T) {
	var out, errb syncBuffer
	for _, args := range [][]string{
		{},                                    // -store required
		{"-store"},                            // missing value
		{"-store", "x", "extra"},              // positional argument
		{"-nonesuch"},                         // unknown flag
		{"-store", "x", "-log-level", "loud"}, // unknown log level
		{"-store", "x", "-retries", "1"},      // a compute error is final
	} {
		if got := runCtx(context.Background(), args, &out, &errb); got != 2 {
			t.Errorf("runCtx(%q) = %d, want 2", args, got)
		}
	}
	// Flags the service would ignore or silently replace, next to a
	// valid -store.  The context is already canceled, so a daemon that
	// accepted them would return at once instead of serving.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flags := range [][]string{
		{"-rate-burst", "5"},          // a burst without a rate
		{"-max-inflight-cells", "-3"}, // negative quota
		{"-rate-limit", "-1"},         // negative rate
		{"-lease-ttl", "-1s"},         // would become the 30s default
	} {
		args := append([]string{"-listen", "127.0.0.1:0", "-store", t.TempDir()}, flags...)
		if got := runCtx(canceled, args, &out, &errb); got != 2 {
			t.Errorf("runCtx(%q) = %d, want 2", flags, got)
		}
	}
}

var servingLine = regexp.MustCompile(`recycled: serving on (http://[^ ]+) \(store `)

// TestServeLifecycle boots the daemon on an ephemeral port, runs one
// tiny sweep through it end to end with the jobs client, and shuts it
// down with context cancellation.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- runCtx(ctx, []string{"-listen", "127.0.0.1:0", "-store", t.TempDir(),
			"-log-level", "debug"}, &out, &errb)
	}()

	// Parse the announced address from stdout.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving line on stdout:\n%s\n%s", out.String(), errb.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := jobs.WaitHealthy(ctx, base, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	client := jobs.NewClient(base)
	var res []jobs.CellResult
	st, err := client.Run(ctx, jobs.JobRequest{Cells: []jobs.CellSpec{{
		Machine:   config.Big216(),
		Features:  config.SMT,
		Workloads: []string{"compress"},
		Insts:     1_000,
	}}}, func(r jobs.CellResult) error { res = append(res, r); return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != "done" || st.Computes != 1 {
		t.Errorf("status %+v, want done with 1 compute", st)
	}
	if len(res) != 1 || res[0].Error != "" || res[0].Stats == nil || res[0].Stats.Committed == 0 {
		t.Errorf("results %+v", res)
	}

	// The daemon mounts the trace endpoint: the job's Chrome trace is
	// valid JSON carrying its cell span.
	raw, err := client.FetchTrace(ctx, st.ID)
	if err != nil {
		t.Fatalf("FetchTrace: %v", err)
	}
	var traceDoc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &traceDoc); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	var sawCell bool
	for _, ev := range traceDoc.TraceEvents {
		sawCell = sawCell || ev.Name == "cell"
	}
	if !sawCell {
		t.Errorf("trace export has no cell span:\n%s", raw)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d on clean shutdown, want 0\nstderr: %s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(errb.String(), "shutting down") {
		t.Errorf("no shutdown line on stderr: %s", errb.String())
	}

	// Stdout stays a single handshake line; every stderr diagnostic is
	// one structured JSON record carrying the IDs it is about.
	if lines := strings.Count(strings.TrimSpace(out.String()), "\n"); lines != 0 {
		t.Errorf("stdout has %d extra lines beyond the handshake:\n%s", lines, out.String())
	}
	var sawSubmit, sawDone bool
	for _, line := range strings.Split(strings.TrimSpace(errb.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("stderr line is not JSON: %q", line)
			continue
		}
		switch rec["msg"] {
		case "job submitted":
			sawSubmit = rec["job"] == st.ID && rec["trace"] == st.Trace
		case "job done":
			sawDone = rec["job"] == st.ID
		}
	}
	if !sawSubmit || !sawDone {
		t.Errorf("missing job lifecycle records (submitted=%v done=%v):\n%s",
			sawSubmit, sawDone, errb.String())
	}
}
