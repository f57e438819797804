// Command recycled is the simulation-as-a-service daemon: it serves
// the HTTP/JSON job API (internal/jobs) over a durable
// content-addressed result store (internal/store), alongside the
// observability endpoints, all on one listener:
//
//	POST /jobs               submit a sweep (JSON cell list)
//	GET  /jobs/{id}          job status document
//	GET  /jobs/{id}/results  NDJSON per-cell result stream
//	GET  /jobs/{id}/trace    request trace (Chrome trace_event JSON)
//	GET  /storestats         store hit/compute/corruption counters
//	POST /fleet/...          worker protocol (register/lease/heartbeat/
//	                         complete/deregister; cmd/recycleworker)
//	GET  /fleet/workers      registered worker listing
//	GET  /metrics /progress /healthz /buildinfo /debug/pprof/...
//
// With -token the job API requires a client bearer token (with
// optional per-client in-flight cell quotas and request rate limits;
// violations get 401/429 replies), and with -worker-token the fleet
// API requires a worker bearer token.  Every error reply of either API
// is one JSON body (error, code, retry_after_ms).  Worker processes
// (cmd/recycleworker) pull cells under time-bounded leases; a worker
// that dies or stalls has its cells requeued automatically, and with
// no workers attached every cell computes in-process — same results
// either way, byte for byte.
//
// Every result is keyed by the cell's full content (machine, features,
// workloads, budget, sampling schedule and confidence), written to the
// store durably, and deduplicated in flight, so overlapping sweeps from
// any number of clients simulate each distinct cell exactly once —
// including across restarts.  Results are byte-identical to a direct
// library run of the same cell.
//
// Stdout carries exactly one machine-readable handshake line; all
// diagnostics are structured JSON records (log/slog) on stderr, each
// carrying the job/trace/cell IDs involved, filtered by -log-level.
//
// Exit status is 0 on clean shutdown (SIGINT/SIGTERM) and 2 on bad
// flags or a listener/store that cannot be opened.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"time"

	"recyclesim/internal/fleet"
	"recyclesim/internal/jobs"
	"recyclesim/internal/obs/server"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recycled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":8347", "address to serve the job and observability API on (\":0\" for an ephemeral port)")
	storeDir := fs.String("store", "", "directory for the durable result store (required; created if missing)")
	workers := fs.Int("workers", 0, "per-job cell parallelism (0 = GOMAXPROCS)")
	token := fs.String("token", "", "bearer token(s) clients must present on the job API, comma-separated (empty = open)")
	workerToken := fs.String("worker-token", "", "bearer token workers must present on the fleet API (empty = open)")
	maxInflight := fs.Int("max-inflight-cells", 0, "per-client in-flight cell quota (0 = unlimited)")
	rateLimit := fs.Float64("rate-limit", 0, "per-client job-API requests per second (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "rate-limit burst size (0 = ceil of -rate-limit; requires -rate-limit)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "worker lease TTL (heartbeats renew it; an expired lease requeues its cell)")
	logLevel := fs.String("log-level", "info", "minimum level for the JSON logs on stderr (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "recycled: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *storeDir == "" {
		fmt.Fprintln(stderr, "recycled: -store is required")
		fs.Usage()
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "recycled: -log-level: %v\n", err)
		return 2
	}
	// A value the service would ignore or silently replace is refused.
	var bad string
	switch {
	case *maxInflight < 0:
		bad = "-max-inflight-cells must not be negative"
	case *rateLimit < 0:
		bad = "-rate-limit must not be negative"
	case *rateBurst < 0:
		bad = "-rate-burst must not be negative"
	case *rateBurst > 0 && *rateLimit == 0:
		bad = "-rate-burst requires -rate-limit"
	case *leaseTTL <= 0:
		bad = "-lease-ttl must be positive"
	}
	if bad != "" {
		fmt.Fprintf(stderr, "recycled: %s\n", bad)
		return 2
	}
	log := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))

	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintf(stderr, "recycled: -store: %v\n", err)
		return 2
	}

	prog := &sweep.Progress{}
	obsSrv := server.New(prog)

	// The fleet dispatcher always runs: with no workers attached it
	// degrades to in-process compute through the same canonical
	// executor, so attaching workers later changes throughput, never
	// results.
	disp := fleet.NewDispatcher(fleet.Config{LeaseTTL: *leaseTTL, Log: log})
	disp.StartReaper(ctx, 0)

	var auth *jobs.AuthConfig
	if *token != "" || *maxInflight > 0 || *rateLimit > 0 {
		auth = &jobs.AuthConfig{
			MaxInFlightCells: *maxInflight,
			RatePerSec:       *rateLimit,
			Burst:            *rateBurst,
		}
		if *token != "" {
			for _, tok := range strings.Split(*token, ",") {
				if tok = strings.TrimSpace(tok); tok != "" {
					auth.Tokens = append(auth.Tokens, tok)
				}
			}
		}
	}

	js := jobs.NewServer(ctx, st, jobs.Config{
		Workers:  *workers,
		Fleet:    disp,
		Auth:     auth,
		Progress: prog,
		Publish:  obsSrv.Publish,
		Log:      log,
	})
	js.Register(obsSrv)
	disp.Register(obsSrv, *workerToken)
	obsSrv.AppendMetrics(js.WriteServiceMetrics)
	obsSrv.AppendMetrics(disp.WriteMetrics)
	if err := obsSrv.Start(*listen); err != nil {
		fmt.Fprintf(stderr, "recycled: -listen: %v\n", err)
		return 2
	}
	defer obsSrv.Close()

	// The serving line is the machine-readable handshake: tests and
	// scripts parse the address out of it (required with -listen :0).
	fmt.Fprintf(stdout, "recycled: serving on http://%s (store %s)\n", obsSrv.Addr(), *storeDir)
	log.Info("recycled serving", "addr", obsSrv.Addr(), "store", *storeDir,
		"workers", *workers,
		"auth", auth != nil, "worker_auth", *workerToken != "", "lease_ttl", leaseTTL.String())

	<-ctx.Done()
	log.Info("recycled shutting down")
	return 0
}
