package obs

import (
	"bytes"
	"testing"
)

func TestChromeWriterEnvelope(t *testing.T) {
	for _, c := range []struct {
		events []any
		want   string
	}{
		{nil, "{\"traceEvents\":[\n]}\n"},
		{[]any{1}, "{\"traceEvents\":[\n1\n]}\n"},
		{[]any{struct {
			B string `json:"b"`
			A int    `json:"a"`
		}{"x", 2}, "s"}, "{\"traceEvents\":[\n{\"b\":\"x\",\"a\":2},\n\"s\"\n]}\n"},
	} {
		var buf bytes.Buffer
		cw := NewChromeWriter(&buf)
		for _, ev := range c.events {
			cw.Emit(ev)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.want {
			t.Errorf("got %q, want %q", buf.String(), c.want)
		}
	}
}

// TestChromeWriterStickyError: the first marshalling error stops every
// later event and comes back from Close.
func TestChromeWriterStickyError(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.Emit(func() {})
	cw.Emit(1)
	err := cw.Close()
	if err == nil {
		t.Fatal("Close reported no error after an unmarshallable event")
	}
	if buf.Len() != 0 {
		t.Errorf("a failed document wrote %q", buf.String())
	}
}
