package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
)

// TestBadFlags: flag errors, and a daemon that never answers, exit 2
// before the worker attaches.
func TestBadFlags(t *testing.T) {
	// A loopback port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"extra"}, "unexpected argument"},
		{[]string{"-nonesuch"}, "flag provided but not defined"},
		{[]string{"-log-level", "loud"}, "-log-level"},
		{[]string{"-parallel", "-3"}, "-parallel -3 is negative"},
		{[]string{"-daemon", closed, "-wait-healthy", "200ms"}, "-daemon: no healthy server"},
	} {
		var out, errb bytes.Buffer
		if got := runCtx(context.Background(), tc.args, &out, &errb); got != 2 {
			t.Errorf("runCtx(%q) = %d, want 2", tc.args, got)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("runCtx(%q) stderr %q, want it to mention %q", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("runCtx(%q) wrote a handshake: %q", tc.args, out.String())
		}
	}
}
