// Command recycleworker is a fleet worker process: it registers with a
// recycled daemon, long-polls simulation cells under time-bounded
// leases, computes each one with the same canonical executor the
// daemon uses in-process (so results are byte-identical no matter
// where a cell runs), and reports records back.  Heartbeats keep its
// leases renewed while computes run; on SIGINT/SIGTERM it deregisters,
// and the daemon requeues the cells it still holds immediately.
//
// Stdout carries exactly one machine-readable handshake line
// ("recycleworker: attached to <url> ..."); diagnostics are structured
// JSON records (log/slog) on stderr.
//
// Exit status is 0 on clean shutdown and 2 on bad flags or a daemon
// that never admits the worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"recyclesim/internal/fleet"
	"recyclesim/internal/jobs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recycleworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	daemon := fs.String("daemon", "http://127.0.0.1:8347", "base URL of the recycled daemon to attach to")
	name := fs.String("name", "", "worker name in the daemon's listings (default: hostname)")
	token := fs.String("token", "", "bearer token for the daemon's fleet API (required when recycled runs with -worker-token)")
	parallel := fs.Int("parallel", 0, "cells to compute concurrently (0 = GOMAXPROCS)")
	pollWait := fs.Duration("poll-wait", 5*time.Second, "long-poll window per lease request")
	waitHealthy := fs.Duration("wait-healthy", 10*time.Second, "how long to wait for the daemon's /healthz before registering")
	logLevel := fs.String("log-level", "info", "minimum level for the JSON logs on stderr (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "recycleworker: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "recycleworker: -parallel %d is negative (0 = GOMAXPROCS)\n", *parallel)
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "recycleworker: -log-level: %v\n", err)
		return 2
	}
	log := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))

	if *name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "recycleworker"
		}
		*name = host
	}
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	base := strings.TrimRight(*daemon, "/")
	if err := jobs.WaitHealthy(ctx, base, *waitHealthy); err != nil {
		fmt.Fprintf(stderr, "recycleworker: -daemon: %v\n", err)
		return 2
	}

	w := fleet.NewWorker(fleet.WorkerConfig{
		BaseURL:  base,
		Name:     *name,
		Token:    *token,
		Parallel: *parallel,
		PollWait: *pollWait,
		Log:      log,
	})

	// The handshake line: scripts parse it to know the worker is live.
	fmt.Fprintf(stdout, "recycleworker: attached to %s (name %s, parallel %d)\n", base, *name, *parallel)
	log.Info("recycleworker attached", "daemon", base, "name", *name, "parallel", *parallel)

	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintf(stderr, "recycleworker: %v\n", err)
		return 2
	}
	log.Info("recycleworker shutting down", "computes", w.Computes())
	return 0
}
