package jobs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/obs/trace"
)

// chromeTraceDoc mirrors the /jobs/{id}/trace export for validation.
type chromeTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestJobTraceEndpoint is the tentpole acceptance witness at the
// service level: a swept job exports a Chrome trace with one span tree
// per cell — queue wait, store lookup, compute (with its attempt) or
// hit, and stream delivery — under the trace ID the client propagated.
func TestJobTraceEndpoint(t *testing.T) {
	const insts = 2_000
	_, client := newTestService(t, t.TempDir(), Config{Workers: 2})
	client.TraceID = "abc123"
	cells := []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, insts),
		detailedCell(config.TME, []string{"li"}, insts),
	}
	_, st := collect(t, client, JobRequest{Cells: cells})

	wantID := "0000000000abc123"
	if st.Trace != wantID {
		t.Errorf("status trace = %q, want propagated %q", st.Trace, wantID)
	}

	raw, err := client.FetchTrace(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("FetchTrace: %v", err)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if !strings.Contains(string(raw), wantID) {
		t.Error("exported trace missing the propagated trace ID")
	}
	if !strings.Contains(string(raw), "(drops 0)") {
		t.Error("span buffer overflowed (drops > 0) on a 2-cell job")
	}

	// Index the per-track span names: each cell subtree renders on its
	// own tid, so "one span tree per cell" means two cell tracks, each
	// holding the full queue → lookup → compute → stream path.
	var jobs int
	byTrack := map[int64]map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "job" {
			jobs++
			continue
		}
		m := byTrack[ev.Tid]
		if m == nil {
			m = map[string]int{}
			byTrack[ev.Tid] = m
		}
		m[ev.Name]++
	}
	if jobs != 1 {
		t.Errorf("%d job root spans, want 1", jobs)
	}
	if len(byTrack) != len(cells) {
		t.Fatalf("%d cell tracks, want %d", len(byTrack), len(cells))
	}
	for tid, m := range byTrack {
		if m["cell"] != 1 || m["queue"] != 1 || m["stream"] != 1 {
			t.Errorf("track %d: cell/queue/stream = %d/%d/%d, want 1/1/1",
				tid, m["cell"], m["queue"], m["stream"])
		}
		if m["lookup"] < 1 {
			t.Errorf("track %d has no lookup span", tid)
		}
		// Fresh store: every cell computes, with at least one attempt.
		if m["compute"] != 1 || m["attempt"] < 1 || m["put"] != 1 {
			t.Errorf("track %d: compute/attempt/put = %d/%d/%d, want 1/>=1/1",
				tid, m["compute"], m["attempt"], m["put"])
		}
	}

	// A second identical sweep is all hits: its trace has lookups but
	// no compute spans.
	client.TraceID = ""
	_, st2 := collect(t, client, JobRequest{Cells: cells})
	if st2.Trace == wantID || st2.Trace == "" {
		t.Errorf("second job trace ID %q not freshly minted", st2.Trace)
	}
	raw2, err := client.FetchTrace(context.Background(), st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	s2 := string(raw2)
	if strings.Contains(s2, `"compute"`) {
		t.Error("all-hit job trace contains compute spans")
	}
	if !strings.Contains(s2, `"hit":1`) {
		t.Error("all-hit job trace has no hit-attributed lookup")
	}
}

// TestTraceOfUnknownJob: the endpoint 404s like its siblings.
func TestTraceOfUnknownJob(t *testing.T) {
	_, client := newTestService(t, t.TempDir(), Config{})
	if _, err := client.FetchTrace(context.Background(), "j999"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("FetchTrace(j999) = %v, want 404", err)
	}
}

// TestBadTraceHeaderIgnored: a malformed propagated ID gets replaced
// with a minted one instead of failing the submit.
func TestBadTraceHeaderIgnored(t *testing.T) {
	_, client := newTestService(t, t.TempDir(), Config{})
	client.TraceID = "not-hex!"
	id, err := client.Submit(context.Background(), JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1_000),
	}})
	if err != nil {
		t.Fatalf("Submit with bad trace header: %v", err)
	}
	st, err := client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trace.ParseID(st.Trace); !ok {
		t.Errorf("minted trace ID %q does not parse", st.Trace)
	}
	awaitJob(t, client, id)
}

// TestWriteServiceMetrics: completed spans land in the per-stage
// latency histograms and the job counters render as exposition text.
func TestWriteServiceMetrics(t *testing.T) {
	srv, client := newTestService(t, t.TempDir(), Config{})
	collect(t, client, JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1_000),
	}})

	var sb strings.Builder
	srv.WriteServiceMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"svc_jobs_submitted 1\n",
		"svc_jobs_done 1\n",
		"svc_job_latency_us_count 1\n",
		`svc_stage_latency_us_count{stage="queue"} 1` + "\n",
		`svc_stage_latency_us_count{stage="compute"} 1` + "\n",
		`svc_stage_latency_us_bucket{stage="lookup",le="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("service metrics missing %q:\n%s", want, out)
		}
	}
}

// TestResultsStreamClientDisconnect is the satellite witness: a client
// abandoning the NDJSON stream mid-job must unblock the handler's
// cond wait and leak no goroutines.
func TestResultsStreamClientDisconnect(t *testing.T) {
	srv, client := newTestService(t, t.TempDir(), Config{})
	// A job that never finishes: registered by hand, never run, so the
	// stream handler parks in cond.Wait with no broadcast ever coming
	// from the job side.
	j := srv.newJob([]CellSpec{detailedCell(config.SMT, []string{"compress"}, 1_000)}, trace.NewID())

	before := runtime.NumGoroutine()
	const streams = 4
	cancels := make([]context.CancelFunc, 0, streams)
	for i := 0; i < streams; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, client.BaseURL+"/jobs/"+j.id+"/results", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("open stream %d: %v", i, err)
		}
		// Headers arrived, so the handler is running; the body read
		// would block forever if we waited for data.
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("stream %d: %d %q", i, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}

	for _, cancel := range cancels {
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after disconnects\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitResponseCarriesTrace: the POST /jobs reply surfaces the
// assigned trace ID next to the job ID.
func TestSubmitResponseCarriesTrace(t *testing.T) {
	_, client := newTestService(t, t.TempDir(), Config{})
	body := strings.NewReader(`{"cells":[{"machine":` + mustJSON(t, config.Big216()) +
		`,"features":{},"workloads":["compress"],"insts":1000}]}`)
	req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("submit reply: %v\n%s", err, raw)
	}
	if out.ID == "" || out.Trace != "00000000deadbeef" {
		t.Errorf("submit reply = %+v, want id and trace 00000000deadbeef", out)
	}
	awaitJob(t, client, out.ID)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// stepClock is a manually advanced time source for the dispatcher.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestRequeuedCellTraceFits: a cell whose lease expires on every round
// of its requeue budget, then computes locally, records a lease and a
// requeue span per round plus its attempt — and the job's span buffer,
// sized at admission, holds them all.
func TestRequeuedCellTraceFits(t *testing.T) {
	clk := &stepClock{now: time.Unix(1_700_000_000, 0)}
	d := fleet.NewDispatcher(fleet.Config{LeaseTTL: 10 * time.Second, Now: clk.Now}) // MaxRequeues 3
	_, client := newTestService(t, t.TempDir(), Config{Fleet: d})
	worker := d.RegisterWorker("w", 1).Worker

	id, err := client.Submit(context.Background(), JobRequest{Cells: []CellSpec{
		detailedCell(config.SMT, []string{"compress"}, 1_000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Four lease rounds (the first plus three requeues), each left to
	// lapse on a live worker; the fourth requeue degrades the cell to
	// local compute.
	for round := 1; round <= 4; round++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			g, err := d.Lease(context.Background(), worker, 0)
			if err != nil {
				t.Fatalf("round %d: Lease: %v", round, err)
			}
			if g != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no lease granted", round)
			}
			time.Sleep(time.Millisecond)
		}
		clk.Advance(11 * time.Second)
		_ = d.Heartbeat(worker, nil) // liveness only; the lease lapses
		if n := d.Reap(); n != 1 {
			t.Fatalf("round %d: Reap requeued %d leases, want 1", round, n)
		}
	}
	awaitJob(t, client, id)
	st, err := client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Computes != 1 {
		t.Fatalf("job status %+v, want one computed cell", st)
	}
	if c := d.Counters(); c.Requeues != 4 || c.LocalFallbacks != 1 {
		t.Fatalf("dispatcher counters %+v, want 4 requeues and 1 local fallback", c)
	}

	raw, err := client.FetchTrace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "(drops 0)") {
		t.Fatalf("span buffer overflowed on a requeued cell:\n%s", raw)
	}
	var doc chromeTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	if names["lease"] != 4 || names["requeue"] != 4 || names["attempt"] != 1 || names["stream"] != 1 {
		t.Errorf("lease/requeue/attempt/stream spans = %d/%d/%d/%d, want 4/4/1/1",
			names["lease"], names["requeue"], names["attempt"], names["stream"])
	}
}
