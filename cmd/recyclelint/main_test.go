package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var fixtureDir = filepath.Join("..", "..", "internal", "lint", "testdata", "fixture")

// TestRunExitCodes is the table-driven contract for the CLI: exit 0 on
// a clean tree, 1 on findings, 2 on usage or load errors.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		want      int
		wantOut   string // substring required on stdout
		wantErr   string // substring required on stderr
		absentOut string // substring forbidden on stdout
	}{
		{
			name:    "fixture has findings",
			args:    []string{fixtureDir},
			want:    1,
			wantOut: "[determinism]",
			wantErr: "finding(s)",
		},
		{
			name:      "repo is clean via pattern",
			args:      []string{filepath.Join("..", "..") + string(filepath.Separator) + "..."},
			want:      0,
			absentOut: "[",
		},
		{
			name:    "rule subset",
			args:    []string{"-rules", "floatcmp", fixtureDir},
			want:    1,
			wantOut: "[floatcmp]",
			// subsetting must drop the other analyzers' findings
			absentOut: "[determinism]",
		},
		{
			name:    "unknown rule",
			args:    []string{"-rules", "nosuch", fixtureDir},
			want:    2,
			wantErr: "unknown rule",
		},
		{
			name:    "list rules",
			args:    []string{"-list", fixtureDir},
			want:    0,
			wantOut: "deadknob",
		},
		{
			name:    "too many args",
			args:    []string{fixtureDir, fixtureDir},
			want:    2,
			wantErr: "usage:",
		},
		{
			name: "bad flag",
			args: []string{"-definitely-not-a-flag"},
			want: 2,
		},
		{
			// a directory outside any module: findModule walks to the
			// filesystem root without seeing a go.mod
			name:    "no enclosing module",
			args:    []string{filepath.Join(os.TempDir(), "recyclelint-no-module")},
			want:    2,
			wantErr: "no go.mod",
		},
		{
			name:    "json findings",
			args:    []string{"-json", "-rules", "floatcmp", fixtureDir},
			want:    1,
			wantOut: `"rule": "floatcmp"`,
			wantErr: "finding(s)",
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
			if tc.absentOut != "" && strings.Contains(stdout.String(), tc.absentOut) {
				t.Errorf("stdout unexpectedly contains %q:\n%s", tc.absentOut, stdout.String())
			}
		})
	}
}
