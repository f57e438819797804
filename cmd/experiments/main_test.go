package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunArgs is the table-driven contract for the harness front-end:
// figure/table numbers the paper does not have, bad flags, and empty
// invocations all exit 2; a real (tiny) regeneration exits 0.
func TestRunArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int
		wantOut string // substring required on stdout
		wantErr string // substring required on stderr
	}{
		{
			name:    "tiny figure 3 run",
			args:    []string{"-fig", "3", "-insts", "300"},
			want:    0,
			wantOut: "Figure 3",
		},
		{
			name:    "unknown figure",
			args:    []string{"-fig", "7"},
			want:    2,
			wantErr: "no figure 7",
		},
		{
			name:    "unknown table",
			args:    []string{"-table", "2"},
			want:    2,
			wantErr: "no table 2",
		},
		{
			name:    "negative worker count",
			args:    []string{"-fig", "3", "-insts", "300", "-workers", "-3"},
			want:    2,
			wantErr: "-workers -3 is negative",
		},
		{
			name:    "nothing selected prints usage",
			args:    nil,
			want:    2,
			wantErr: "Usage",
		},
		{
			name: "bad flag",
			args: []string{"-definitely-not-a-flag"},
			want: 2,
		},
		{
			name: "bad flag value",
			args: []string{"-fig", "three"},
			want: 2,
		},
		{
			name:    "stray positional argument",
			args:    []string{"everything"},
			want:    2,
			wantErr: "unexpected argument",
		},
		{
			name:    "sampling flags without -sampled",
			args:    []string{"-fig", "3", "-insts", "2000", "-confidence", "0.8", "-sample-period", "7"},
			want:    2,
			wantErr: "-confidence, -sample-period would be ignored",
		},
		{
			name:    "sample warmup without -sampled",
			args:    []string{"-all", "-sample-interval", "500", "-sample-warmup", "500"},
			want:    2,
			wantErr: "-sample-interval, -sample-warmup would be ignored",
		},
		{
			name:    "oversized schedule is a flag error",
			args:    []string{"-sampled", "-insts", "2000", "-sample-period", "1000", "-sample-interval", "900", "-sample-warmup", "900"},
			want:    2,
			wantErr: "exceed period",
		},
		{
			name:    "unsupported confidence is a flag error",
			args:    []string{"-sampled", "-insts", "2000", "-confidence", "0.8"},
			want:    2,
			wantErr: "confidence 0.8 is not one of",
		},
		{
			name:    "sampled budget smaller than one period is a flag error",
			args:    []string{"-sampled", "-insts", "10000"},
			want:    2,
			wantErr: "budget 10000 smaller than one period 20000",
		},
		{
			name:    "crash dir with only the sampled sweep",
			args:    []string{"-sampled", "-insts", "20000", "-crash-dir", "crashes"},
			want:    2,
			wantErr: "-crash-dir would be ignored",
		},
		{
			name: "bad schedule is refused before a remote submit",
			args: []string{"-sampled", "-insts", "2000", "-remote", "http://127.0.0.1:1",
				"-sample-period", "1000", "-sample-interval", "900", "-sample-warmup", "900"},
			want:    2,
			wantErr: "bad sampling schedule",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, stdout.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
		})
	}
}

// TestFormatProgress is the table-driven contract for the meter line:
// percentage math, the "?" ETA before any cell lands, the zero ETA at
// completion, and the current-cell suffix.
func TestFormatProgress(t *testing.T) {
	cases := []struct {
		done, total int64
		current     string
		elapsed     time.Duration
		want        string
	}{
		{0, 0, "", 0, "cells 0/0 (0%)  elapsed 0s  eta ?"},
		{0, 8, "", 2 * time.Second, "cells 0/8 (0%)  elapsed 2s  eta ?"},
		{2, 8, "", 10 * time.Second, "cells 2/8 (25%)  elapsed 10s  eta 30s"},
		{2, 8, "big.2.16/REC/gcc", 10 * time.Second,
			"cells 2/8 (25%)  elapsed 10s  eta 30s  big.2.16/REC/gcc"},
		{8, 8, "", time.Minute, "cells 8/8 (100%)  elapsed 1m0s  eta 0s"},
	}
	for _, tc := range cases {
		if got := formatProgress(tc.done, tc.total, tc.current, tc.elapsed); got != tc.want {
			t.Errorf("formatProgress(%d, %d, %q, %v) = %q, want %q",
				tc.done, tc.total, tc.current, tc.elapsed, got, tc.want)
		}
	}
}

// TestFormatProgressDone is the contract for the meter's final line:
// it replaces the ETA with the sweep's compute/hit split and closes
// with "done" (or "stopped" when the run was cut short).
func TestFormatProgressDone(t *testing.T) {
	cases := []struct {
		done, total    int64
		elapsed        time.Duration
		computes, hits int64
		want           string
	}{
		{8, 8, time.Minute, 8, 0, "cells 8/8 (100%)  elapsed 1m0s  computes 8  hits 0  done"},
		{8, 8, 2 * time.Second, 0, 8, "cells 8/8 (100%)  elapsed 2s  computes 0  hits 8  done"},
		{3, 8, 10 * time.Second, 2, 1, "cells 3/8 (38%)  elapsed 10s  computes 2  hits 1  stopped"},
		{0, 0, 0, 0, 0, "cells 0/0 (0%)  elapsed 0s  computes 0  hits 0  done"},
	}
	for _, tc := range cases {
		if got := formatProgressDone(tc.done, tc.total, tc.elapsed, tc.computes, tc.hits); got != tc.want {
			t.Errorf("formatProgressDone(%d, %d, %v, %d, %d) = %q, want %q",
				tc.done, tc.total, tc.elapsed, tc.computes, tc.hits, got, tc.want)
		}
	}
}

// TestObservabilityDoesNotPerturbOutput runs the same tiny regeneration
// with and without the observability server and progress meter: stdout
// must be byte-identical, because the server and meter write only to
// their listener and stderr.
func TestObservabilityDoesNotPerturbOutput(t *testing.T) {
	var plainOut, plainErr strings.Builder
	if got := run([]string{"-fig", "3", "-insts", "300"}, &plainOut, &plainErr); got != 0 {
		t.Fatalf("plain run exited %d\n%s", got, plainErr.String())
	}
	var obsOut, obsErr strings.Builder
	args := []string{"-fig", "3", "-insts", "300", "-obs-listen", "127.0.0.1:0", "-progress"}
	if got := run(args, &obsOut, &obsErr); got != 0 {
		t.Fatalf("observed run exited %d\n%s", got, obsErr.String())
	}
	if plainOut.String() != obsOut.String() {
		t.Errorf("stdout differs with observability enabled:\nplain:\n%s\nobserved:\n%s",
			plainOut.String(), obsOut.String())
	}
	if !strings.Contains(obsErr.String(), "observability server on http://") {
		t.Errorf("stderr missing server announcement:\n%s", obsErr.String())
	}
	if s := obsErr.String(); !strings.Contains(s, "(100%)") || !strings.Contains(s, "  done") {
		t.Errorf("stderr missing the meter's final completed line:\n%s", s)
	}
}

// TestCheckpointResumeCLI: the same invocation run twice against one
// -checkpoint store must print byte-identical output, report on stderr
// that every cell was restored and none computed, and leave the store
// unchanged (same files, same bytes).
func TestCheckpointResumeCLI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	args := []string{"-fig", "3", "-insts", "300", "-checkpoint", dir}

	var out1, err1 strings.Builder
	if got := run(args, &out1, &err1); got != 0 {
		t.Fatalf("first run exited %d:\n%s", got, err1.String())
	}
	if !strings.Contains(err1.String(), ": 0 cell(s) restored, 48 computed") {
		t.Errorf("first run accounting missing: %q", err1.String())
	}
	before := snapshotDir(t, dir)
	if len(before) != 48 {
		t.Fatalf("store holds %d records, want one per Figure 3 cell (48)", len(before))
	}

	var out2, err2 strings.Builder
	if got := run(args, &out2, &err2); got != 0 {
		t.Fatalf("resumed run exited %d:\n%s", got, err2.String())
	}
	if out1.String() != out2.String() {
		t.Error("resumed run's stdout differs from the original")
	}
	if !strings.Contains(err2.String(), ": 48 cell(s) restored, 0 computed") {
		t.Errorf("resume not reported on stderr: %q", err2.String())
	}
	if !sameDir(before, snapshotDir(t, dir)) {
		t.Error("resumed run modified a complete store")
	}
}

// TestSampledSweepCLI: the opt-in sampled sweep prints the CI report,
// stores its cells under sampled keys that never collide with
// full-detail cells, and resumes byte-identically.
func TestSampledSweepCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sampled", "-insts", "20000", "-sample-period", "4000",
		"-sample-interval", "400", "-sample-warmup", "400", "-checkpoint", dir}

	var out1, err1 strings.Builder
	if got := run(args, &out1, &err1); got != 0 {
		t.Fatalf("first run exited %d:\n%s", got, err1.String())
	}
	if !strings.Contains(out1.String(), "Figure 3 (sampled)") {
		t.Errorf("sampled report missing:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "schedule: period=4000 interval=400 warmup=400") {
		t.Errorf("schedule line missing:\n%s", out1.String())
	}
	before := snapshotDir(t, dir)
	if len(before) != 40 {
		t.Fatalf("store holds %d records, want 40 sampled cells", len(before))
	}
	for path, data := range before {
		if !strings.Contains(data, `"sampled":{`) || strings.Contains(data, `"stats":{`) {
			t.Errorf("%s is not a sampled record: %.200s", path, data)
		}
	}

	var out2, err2 strings.Builder
	if got := run(args, &out2, &err2); got != 0 {
		t.Fatalf("resumed run exited %d:\n%s", got, err2.String())
	}
	if out1.String() != out2.String() {
		t.Error("resumed sampled run's stdout differs from the original")
	}
	if !sameDir(before, snapshotDir(t, dir)) {
		t.Error("resumed run modified a complete store")
	}
}

// TestCheckpointCorruptCLI: a corrupt record is a miss, not an error —
// the cell is recomputed and its record overwritten, stdout is
// unchanged, and the next run restores every cell again.
func TestCheckpointCorruptCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-fig", "3", "-insts", "300", "-checkpoint", dir}
	var out1, err1 strings.Builder
	if got := run(args, &out1, &err1); got != 0 {
		t.Fatalf("first run exited %d:\n%s", got, err1.String())
	}
	var victim string
	for path := range snapshotDir(t, dir) {
		victim = path
		break
	}
	os.WriteFile(victim, []byte("garbage\n"), 0o644)

	var out2, err2 strings.Builder
	if got := run(args, &out2, &err2); got != 0 {
		t.Fatalf("run over a corrupt record exited %d:\n%s", got, err2.String())
	}
	if out1.String() != out2.String() {
		t.Error("stdout changed after recomputing a corrupt record")
	}
	if !strings.Contains(err2.String(), ": 47 cell(s) restored, 1 computed") {
		t.Errorf("want exactly the corrupt cell recomputed: %q", err2.String())
	}
	var out3, err3 strings.Builder
	if got := run(args, &out3, &err3); got != 0 || !strings.Contains(err3.String(), ": 48 cell(s) restored, 0 computed") {
		t.Errorf("corrupt record was not overwritten: exit %d, %q", got, err3.String())
	}
}

// TestCheckpointCorruptMiddleRejected: -checkpoint takes a store
// directory.  A plain file — such as a JSONL journal from an older
// harness, here one with a corrupt middle line — is refused with exit 2
// before any simulation runs, and left untouched.
func TestCheckpointCorruptMiddleRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	journal := "not json\n{\"key\":\"k\",\"stats\":{}}\n"
	os.WriteFile(path, []byte(journal), 0o644)
	var out, errb strings.Builder
	if got := run([]string{"-fig", "3", "-insts", "300", "-checkpoint", path}, &out, &errb); got != 2 {
		t.Fatalf("exit %d, want 2", got)
	}
	if !strings.Contains(errb.String(), "-checkpoint") || !strings.Contains(errb.String(), "not a store directory") {
		t.Errorf("stderr %q", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("refused run printed %q", out.String())
	}
	if data, _ := os.ReadFile(path); string(data) != journal {
		t.Error("refused journal was modified")
	}
}

// TestCheckpointUnsavableCellsExit1: results that cannot be saved are
// still printed, but the run reports them and exits 1, because the
// store no longer resumes the sweep.  Every record shard directory name
// is taken by a plain file, so every Put fails.
func TestCheckpointUnsavableCellsExit1(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 256; i++ {
		os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", i)), nil, 0o644)
	}
	var plain strings.Builder
	if got := run([]string{"-fig", "3", "-insts", "300"}, &plain, io.Discard); got != 0 {
		t.Fatalf("plain run exited %d", got)
	}
	var out, errb strings.Builder
	if got := run([]string{"-fig", "3", "-insts", "300", "-checkpoint", dir}, &out, &errb); got != 1 {
		t.Fatalf("exit %d, want 1\n%s", got, errb.String())
	}
	if out.String() != plain.String() {
		t.Error("stdout differs from a run without -checkpoint")
	}
	if !strings.Contains(errb.String(), "48 computed cell(s) could not be saved") {
		t.Errorf("stderr %q", errb.String())
	}
}

// TestInterruptedSweep: a canceled context (the SIGINT path) exits
// nonzero, reports the interruption, and still prints the report
// skeleton with completed cells only.
func TestInterruptedSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	got := runCtx(ctx, []string{"-fig", "3", "-insts", "100000"}, &out, &errb)
	if got != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", got, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr missing interruption notice: %q", errb.String())
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Error("report skeleton not flushed")
	}
	if !strings.Contains(errb.String(), "cell(s) failed") {
		t.Errorf("canceled cells not summarized: %q", errb.String())
	}
}
