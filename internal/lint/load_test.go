package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTree materialises a file tree under a fresh temp dir:
// relative path -> contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadErrors exercises the loader's failure paths; each must
// surface as a descriptive error, never a panic or a silent partial
// load.
func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string
		wantErr string
	}{
		{
			name:    "missing go.mod",
			files:   map[string]string{"a/a.go": "package a\n"},
			wantErr: "no go.mod",
		},
		{
			name: "go.mod without module line",
			files: map[string]string{
				"go.mod": "go 1.21\n",
				"a/a.go": "package a\n",
			},
			wantErr: "no module line",
		},
		{
			name: "parse error",
			files: map[string]string{
				"go.mod": "module m\n",
				"a/a.go": "package a\nfunc broken( {\n",
			},
			wantErr: "expected",
		},
		{
			name: "import cycle",
			files: map[string]string{
				"go.mod": "module m\n",
				"a/a.go": "package a\nimport _ \"m/b\"\n",
				"b/b.go": "package b\nimport _ \"m/a\"\n",
			},
			wantErr: "import cycle",
		},
		{
			name: "type error",
			files: map[string]string{
				"go.mod": "module m\n",
				"a/a.go": "package a\nvar x int = \"not an int\"\n",
			},
			wantErr: "cannot use",
		},
		{
			name: "empty package dir is skipped, not an error",
			files: map[string]string{
				"go.mod":        "module m\n",
				"a/a.go":        "package a\n",
				"b/notgo.txt":   "no go files here\n",
				"c/c_test.go":   "package c\n", // test-only dirs are out of scope
				"d/.hidden.go~": "not a go file\n",
			},
			wantErr: "", // loads fine with just package a
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, tc.files)
			prog, err := Load(root)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				if len(prog.Pkgs) != 1 || prog.Pkgs[0].Path != "m/a" {
					t.Fatalf("unexpected packages: %+v", prog.Pkgs)
				}
				if prog.ModRoot != root {
					t.Fatalf("ModRoot = %q, want %q", prog.ModRoot, root)
				}
				return
			}
			if err == nil {
				t.Fatalf("Load succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSimPackagesDiscovery checks the simulator scope: every loaded
// package under internal/ is in scope except the explicit
// NonSimPackages opt-outs, and the loader's walk already skips
// testdata, hidden and underscore directories — so a newly added
// package is linted by default.
func TestSimPackagesDiscovery(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                        "module m\n",
		"main.go":                       "package m\n", // module root: out of per-package scope
		"cmd/tool/main.go":              "package main\n",
		"internal/alpha/a.go":           "package alpha\n",
		"internal/beta/deep/d.go":       "package deep\n",
		"internal/beta/testdata/f.go":   "package f\n",
		"internal/gamma/only_test.go":   "package gamma\n",
		"internal/_wip/w.go":            "package wip\n",
		"internal/lint/l.go":            "package lint\n", // NonSimPackages opt-out
		"internal/obs/server/s.go":      "package server\n",
		"internal/obs/o.go":             "package obs\n",
		"internal/lint/callgraph/c.go":  "package callgraph\n",
		"internal/delta/.hidden/h.go":   "package h\n",
		"internal/delta/real/real.go":   "package real\n",
		"internal/delta/real/extra.go":  "package real\n", // second file, same package once
		"internal/epsilon/e_linux.go":   "package epsilon\n",
		"internal/epsilon/testdata/x/x": "not go\n",
	})
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, pkg := range prog.Pkgs {
		if prog.simPackage(pkg.Path) {
			got = append(got, prog.rel(pkg.Path))
		}
	}
	want := []string{
		"internal/alpha",
		"internal/beta/deep",
		"internal/delta/real",
		"internal/epsilon",
		"internal/obs",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simulator packages = %v, want %v", got, want)
	}
}

// TestIgnoreDirective pins the directive grammar on raw comment text,
// including the multi-rule form one line can use to silence several
// analyzers.  Only the documented "//simlint:ignore" spelling, followed
// by whitespace or the end of the comment, is a directive.
func TestIgnoreDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//simlint:ignore determinism", []string{"determinism"}},
		{"//simlint:ignore determinism hotalloc -- reason here", []string{"determinism", "hotalloc"}},
		{"//simlint:ignore\ta  b c", []string{"a", "b", "c"}},
		{"//simlint:ignore -- only a reason", nil},
		{"//simlint:ignore", nil},
		{"//lint:ignore determinism", nil}, // wrong prefix
		{"// just a comment", nil},
		{"//simlint:ignoredeterminism", nil},   // no space: not a directive
		{"/*simlint:ignore floatcmp*/", nil},   // block comment: not a directive
		{"// simlint:ignore determinism", nil}, // undocumented spacing
	}
	for _, tc := range cases {
		got := ignoreDirective(tc.text)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ignoreDirective(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}
