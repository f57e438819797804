package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recyclesim/internal/jobs"
	"recyclesim/internal/store"
)

// startService boots an in-process recycled job service for -remote
// tests and returns its base URL.
func startService(t *testing.T, dir string) string {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := jobs.NewServer(context.Background(), st, jobs.Config{})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRemoteMatchesLocalStdout is the -remote acceptance witness: the
// same figure run locally and through a recycled server produces
// byte-identical stdout, the first remote run computes every cell, and
// a rerun is served entirely from the store.
func TestRemoteMatchesLocalStdout(t *testing.T) {
	base := startService(t, t.TempDir())
	args := []string{"-fig", "3", "-insts", "1000"}

	var local, localErr bytes.Buffer
	if code := run(args, &local, &localErr); code != 0 {
		t.Fatalf("local run exit %d: %s", code, localErr.String())
	}

	var rem1, rem1Err bytes.Buffer
	if code := run(append(args, "-remote", base), &rem1, &rem1Err); code != 0 {
		t.Fatalf("first remote run exit %d: %s", code, rem1Err.String())
	}
	if !bytes.Equal(local.Bytes(), rem1.Bytes()) {
		t.Errorf("remote stdout differs from local:\nlocal:\n%s\nremote:\n%s", local.String(), rem1.String())
	}
	if s := rem1Err.String(); !strings.Contains(s, "hits=0 ") {
		t.Errorf("first remote run should have zero hits, stderr: %s", s)
	}
	if s := rem1Err.String(); !strings.Contains(s, "remote: job=") {
		t.Errorf("accounting line should carry the job id, stderr: %s", s)
	}
	if s := rem1Err.String(); !strings.Contains(s, "remote: trace "+base+"/jobs/") {
		t.Errorf("stderr should print the trace URL, stderr: %s", s)
	}

	var rem2, rem2Err bytes.Buffer
	if code := run(append(args, "-remote", base), &rem2, &rem2Err); code != 0 {
		t.Fatalf("second remote run exit %d: %s", code, rem2Err.String())
	}
	if !bytes.Equal(local.Bytes(), rem2.Bytes()) {
		t.Error("second remote run stdout differs from local")
	}
	if s := rem2Err.String(); !strings.Contains(s, "computes=0 ") {
		t.Errorf("second remote run should be all store hits, stderr: %s", s)
	}
}

// TestRemoteMatchesLocalSampled covers the sampled path end to end: a
// non-default schedule and confidence survive the trip through the
// service (the bounds depend on both) and replay byte-identically.
func TestRemoteMatchesLocalSampled(t *testing.T) {
	base := startService(t, t.TempDir())
	args := []string{"-sampled", "-insts", "4000",
		"-sample-period", "2000", "-sample-interval", "200", "-sample-warmup", "200",
		"-confidence", "0.99"}

	var local, localErr bytes.Buffer
	if code := run(args, &local, &localErr); code != 0 {
		t.Fatalf("local run exit %d: %s", code, localErr.String())
	}
	var rem, remErr bytes.Buffer
	if code := run(append(args, "-remote", base), &rem, &remErr); code != 0 {
		t.Fatalf("remote run exit %d: %s", code, remErr.String())
	}
	if !bytes.Equal(local.Bytes(), rem.Bytes()) {
		t.Errorf("sampled remote stdout differs from local:\nlocal:\n%s\nremote:\n%s", local.String(), rem.String())
	}
}

// TestCheckpointSharedWithService: a local -checkpoint directory and a
// job server's store are one cache under one key.  A local sweep's
// directory served by a job server computes nothing; a server's store
// read back by a local sweep computes nothing; both print the same
// stdout, detailed and sampled under a non-default schedule.
func TestCheckpointSharedWithService(t *testing.T) {
	sampledArgs := []string{"-sampled", "-insts", "4000",
		"-sample-period", "2000", "-sample-interval", "200", "-sample-warmup", "300",
		"-confidence", "0.90"}
	for _, tc := range []struct {
		name        string
		args        []string
		remoteFirst bool
	}{
		{"local then remote", []string{"-fig", "3", "-insts", "300"}, false},
		{"remote then local", []string{"-fig", "3", "-insts", "300"}, true},
		{"sampled local then remote", sampledArgs, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			local := func() (string, string) {
				var out, errb bytes.Buffer
				if code := run(append(tc.args, "-checkpoint", dir), &out, &errb); code != 0 {
					t.Fatalf("local run exit %d: %s", code, errb.String())
				}
				return out.String(), errb.String()
			}
			remote := func() (string, string) {
				var out, errb bytes.Buffer
				if code := run(append(tc.args, "-remote", startService(t, dir)), &out, &errb); code != 0 {
					t.Fatalf("remote run exit %d: %s", code, errb.String())
				}
				return out.String(), errb.String()
			}
			if tc.remoteFirst {
				remOut, _ := remote()
				locOut, locErr := local()
				if !strings.Contains(locErr, " 0 computed") {
					t.Errorf("local run over the server's store computed cells: %s", locErr)
				}
				if locOut != remOut {
					t.Errorf("stdout differs:\nremote:\n%s\nlocal:\n%s", remOut, locOut)
				}
				return
			}
			locOut, _ := local()
			remOut, remErr := remote()
			if !strings.Contains(remErr, " computes=0 ") {
				t.Errorf("server over the local store computed cells: %s", remErr)
			}
			if locOut != remOut {
				t.Errorf("stdout differs:\nlocal:\n%s\nremote:\n%s", locOut, remOut)
			}
		})
	}
}

// TestRemoteTraceOut: -trace-out saves the job's request trace as
// Chrome trace_event JSON that a trace viewer would accept — complete
// spans ("X" events) including one per cell.
func TestRemoteTraceOut(t *testing.T) {
	base := startService(t, t.TempDir())
	out := filepath.Join(t.TempDir(), "sweep.trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-fig", "3", "-insts", "1000", "-remote", base, "-trace-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "trace saved to "+out) {
		t.Errorf("stderr missing save confirmation: %s", stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("saved trace is not JSON: %v", err)
	}
	var cells int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "cell" && ev.Phase == "X" {
			cells++
		}
	}
	if cells == 0 {
		t.Errorf("saved trace has no completed cell spans:\n%s", raw)
	}
}

// TestRemoteFlagConflicts: the client-side -checkpoint store and crash
// capture stay local-only concerns, and -trace-out is meaningless
// without a service to trace.
func TestRemoteFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{
		{"-checkpoint", filepath.Join(dir, "cells.journal")},
		{"-crash-dir", dir},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-fig", "3", "-remote", "http://127.0.0.1:1"}, extra...)
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) exit %d, want 2; stderr: %s", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "mutually exclusive") {
			t.Errorf("run(%q) stderr %q, want mutual-exclusion message", args, errb.String())
		}
	}

	var out, errb bytes.Buffer
	args := []string{"-fig", "3", "-trace-out", filepath.Join(dir, "t.json")}
	if code := run(args, &out, &errb); code != 2 {
		t.Errorf("run(%q) exit %d, want 2; stderr: %s", args, code, errb.String())
	}
	if !strings.Contains(errb.String(), "-trace-out requires -remote") {
		t.Errorf("run(%q) stderr %q, want -trace-out conflict message", args, errb.String())
	}
}

// TestRemoteUnreachableServer fails fast with exit 2 and a diagnostic.
func TestRemoteUnreachableServer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "3", "-insts", "1000", "-remote", "http://127.0.0.1:1"}, &out, &errb); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-remote:") {
		t.Errorf("stderr %q, want -remote diagnostic", errb.String())
	}
}
