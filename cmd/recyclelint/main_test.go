package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var fixtureDir = filepath.Join("..", "..", "internal", "lint", "testdata", "fixture")

// cleanModule writes a one-file module that every default analyzer
// passes: its root package declares Run, which resolves a SimRoots
// entry, and marks it //recycle:hotpath, so neither determinism nor
// hotalloc reports a missing root.  The repository itself is linted
// once, by internal/lint's TestRepoIsClean.
func cleanModule(t *testing.T) string {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module clean\n\ngo 1.22\n",
		"run.go": "package clean\n\n//recycle:hotpath\nfunc Run() {}\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunExitCodes is the table-driven contract for the CLI: exit 0 on
// a clean tree, 1 on findings, 2 on usage or load errors.
func TestRunExitCodes(t *testing.T) {
	clean := cleanModule(t)
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
			name:      "clean module via pattern",
			args:      []string{clean + string(filepath.Separator) + "..."},
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
