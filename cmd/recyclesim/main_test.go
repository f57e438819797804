package main

import (
	"context"
	"strings"
	"testing"
)

// TestRunArgs is the table-driven contract for the CLI front-end: bad
// flags and unknown names exit 2 with a diagnostic naming the valid
// choices, valid invocations exit 0.
func TestRunArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int
		wantOut string // substring required on stdout
		wantErr string // substring required on stderr
	}{
		{
			name:    "tiny run succeeds",
			args:    []string{"-workloads", "compress", "-insts", "2000"},
			want:    0,
			wantOut: "IPC",
		},
		{
			name:    "list workloads",
			args:    []string{"-list"},
			want:    0,
			wantOut: "compress",
		},
		{
			name:    "unknown machine",
			args:    []string{"-machine", "huge.9.99"},
			want:    2,
			wantErr: `unknown machine "huge.9.99"`,
		},
		{
			name:    "unknown feature preset",
			args:    []string{"-features", "REC/XX"},
			want:    2,
			wantErr: `unknown feature preset "REC/XX"`,
		},
		{
			name:    "unknown workload",
			args:    []string{"-workloads", "compress,notabench"},
			want:    2,
			wantErr: `unknown workload "notabench"`,
		},
		{
			name:    "unknown alt policy",
			args:    []string{"-altpolicy", "sometimes"},
			want:    2,
			wantErr: `unknown alt policy "sometimes"`,
		},
		{
			name:    "sampled run succeeds",
			args:    []string{"-sample", "-workloads", "gcc", "-insts", "50000", "-sample-period", "5000", "-sample-interval", "500", "-sample-warmup", "500"},
			want:    0,
			wantOut: "sampled",
		},
		{
			name:    "sampled mode wants one workload",
			args:    []string{"-sample", "-workloads", "compress,gcc", "-insts", "50000"},
			want:    1,
			wantErr: "one program",
		},
		{
			name:    "sampled schedule must fit the period",
			args:    []string{"-sample", "-workloads", "gcc", "-insts", "50000", "-sample-period", "1000", "-sample-interval", "800", "-sample-warmup", "800"},
			want:    2,
			wantErr: "exceed",
		},
		{
			name:    "sampled mode rejects detailed-run outputs",
			args:    []string{"-sample", "-workloads", "compress", "-insts", "100000", "-metrics", "m.json", "-pipetrace", "p.json", "-crash-dir", "d"},
			want:    2,
			wantErr: "-crash-dir, -metrics, -pipetrace would be ignored in -sample mode",
		},
		{
			name: "sampled mode rejects telemetry and pipetrace knobs",
			args: []string{"-sample", "-workloads", "gcc", "-flightrec", "64", "-metrics-text", "-",
				"-obs-listen", "127.0.0.1:0", "-pipetrace-konata", "-", "-pipetrace-sample", "4", "-pipetrace-pc", "0:64",
				"-pipetrace-cycles", "0:9", "-pipetrace-max", "8"},
			want: 2,
			wantErr: "-flightrec, -metrics-text, -obs-listen, -pipetrace-cycles, -pipetrace-konata, -pipetrace-max, " +
				"-pipetrace-pc, -pipetrace-sample would be ignored",
		},
		{
			name:    "detailed run rejects the sampling schedule",
			args:    []string{"-workloads", "gcc", "-insts", "2000", "-sample-period", "5000"},
			want:    2,
			wantErr: "-sample-period would be ignored in a detailed run",
		},
		{
			name: "bad flag",
			args: []string{"-definitely-not-a-flag"},
			want: 2,
		},
		{
			name: "bad flag value",
			args: []string{"-insts", "many"},
			want: 2,
		},
		{
			name:    "stray positional argument",
			args:    []string{"compress"},
			want:    2,
			wantErr: "unexpected argument",
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

// TestFaultFlags covers the fault-containment surface of the CLI: bad
// -watchdog values are flag errors; an expired -timeout and an
// interrupted context exit 1 but still print the partial statistics;
// -watchdog off runs clean.
func TestFaultFlags(t *testing.T) {
	t.Run("bad watchdog value", func(t *testing.T) {
		var out, errb strings.Builder
		if got := run([]string{"-watchdog", "sometimes"}, &out, &errb); got != 2 {
			t.Fatalf("exit %d, want 2", got)
		}
		if !strings.Contains(errb.String(), "-watchdog") {
			t.Errorf("stderr %q", errb.String())
		}
	})
	t.Run("watchdog off runs clean", func(t *testing.T) {
		var out, errb strings.Builder
		if got := run([]string{"-watchdog", "off", "-insts", "2000"}, &out, &errb); got != 0 {
			t.Fatalf("exit %d, want 0\n%s", got, errb.String())
		}
	})
	t.Run("explicit watchdog window runs clean", func(t *testing.T) {
		var out, errb strings.Builder
		if got := run([]string{"-watchdog", "100000", "-insts", "2000"}, &out, &errb); got != 0 {
			t.Fatalf("exit %d, want 0\n%s", got, errb.String())
		}
	})
	t.Run("expired timeout prints partial stats", func(t *testing.T) {
		var out, errb strings.Builder
		got := run([]string{"-timeout", "1ns", "-insts", "5000000"}, &out, &errb)
		if got != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", got, errb.String())
		}
		if !strings.Contains(errb.String(), "deadline") || !strings.Contains(errb.String(), "partial statistics") {
			t.Errorf("stderr %q", errb.String())
		}
		if !strings.Contains(out.String(), "IPC") {
			t.Error("partial statistics not printed")
		}
	})
	t.Run("canceled context prints partial stats", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var out, errb strings.Builder
		got := runCtx(ctx, []string{"-insts", "5000000"}, &out, &errb)
		if got != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", got, errb.String())
		}
		if !strings.Contains(errb.String(), "interrupted") {
			t.Errorf("stderr %q", errb.String())
		}
		if !strings.Contains(out.String(), "IPC") {
			t.Error("partial statistics not printed")
		}
	})
}
