package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListingGolden pins the listing and -run output of a small source
// whose data segment has labelled words and more than 32 words, so the
// truncation line is covered too.
func TestListingGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "testdata/listing.ras"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want, err := os.ReadFile("testdata/listing.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("listing differs from testdata/listing.golden:\n%s", got)
	}
}

// TestExitCodes: a usage error exits 2; a source that does not read or
// assemble exits 1 and names the cause.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"no file", nil, 2, "usage"},
		{"two files", []string{"a.ras", "b.ras"}, 2, "usage"},
		{"bad flag", []string{"-bogus", "a.ras"}, 2, "bogus"},
		{"missing file", []string{filepath.Join(dir, "none.ras")}, 1, "none.ras"},
		{"extra array values", []string{write("extra.ras", "halt\n.array a 2 7 8 9\n")}, 1, "extra.ras:2:"},
		{"data into the stack", []string{write("big.ras", ".array big 1000000\nhalt\n")}, 1, "stack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", errOut.String(), tc.msg)
			}
		})
	}
}
