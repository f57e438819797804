package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDStringParseRoundTrip(t *testing.T) {
	for _, id := range []ID{1, 0xdeadbeef, ^ID(0)} {
		s := id.String()
		if len(s) != 16 {
			t.Errorf("ID(%d).String() = %q, want 16 hex digits", id, s)
		}
		got, ok := ParseID(s)
		if !ok || got != id {
			t.Errorf("ParseID(%q) = %v, %v; want %v, true", s, got, ok, id)
		}
	}
	for _, bad := range []string{"", "zz", "00000000000000000", "0"} {
		if id, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted as %v", bad, id)
		}
	}
}

func TestNewIDNonZero(t *testing.T) {
	seen := map[ID]bool{}
	for i := 0; i < 32; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned zero")
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 NewID calls produced %d distinct IDs", len(seen))
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(7, 16)
	root := tr.Root("job").Uint("cells", 2)
	cell := root.Start("cell").Uint("index", 0)
	lookup := cell.Start("lookup").Uint("hit", 1)
	lookup.End()
	cell.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "job" || spans[0].Parent != 0 {
		t.Errorf("root span %+v", spans[0])
	}
	if spans[1].Name != "cell" || spans[1].Parent != spans[0].ID {
		t.Errorf("cell span %+v, want parent %d", spans[1], spans[0].ID)
	}
	if spans[2].Name != "lookup" || spans[2].Parent != spans[1].ID {
		t.Errorf("lookup span %+v, want parent %d", spans[2], spans[1].ID)
	}
	for i, sp := range spans {
		if sp.Dur < 0 {
			t.Errorf("span %d still open after End: %+v", i, sp)
		}
	}
	if a, ok := spans[2].Attr("hit"); !ok || a.U != 1 {
		t.Errorf("lookup hit attr = %+v, %v", a, ok)
	}
	if a, ok := spans[0].Attr("cells"); !ok || a.U != 2 {
		t.Errorf("root cells attr = %+v, %v", a, ok)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New(1, 16)
	var ends int
	tr.SetOnEnd(func(string, time.Duration) { ends++ })
	c := tr.Root("job")
	c.End()
	c.End()
	if ends != 1 {
		t.Errorf("observer ran %d times, want 1", ends)
	}
	if d := tr.Spans()[0].Dur; d < 0 {
		t.Errorf("span open after double End, dur %v", d)
	}
}

func TestErrorAttr(t *testing.T) {
	tr := New(1, 16)
	c := tr.Root("compute")
	c.Error(nil) // no-op
	c.Error(errors.New("boom"))
	c.End()
	sp := tr.Spans()[0]
	a, ok := sp.Attr("error")
	if !ok || !a.IsStr || a.Str != "boom" {
		t.Errorf("error attr = %+v, %v", a, ok)
	}
	if sp.NAttrs != 1 {
		t.Errorf("NAttrs = %d, want 1 (nil error recorded?)", sp.NAttrs)
	}
}

func TestBufferFullDropsSpans(t *testing.T) {
	// 16 is the buffer New allocates up front; past it the buffer grows
	// on demand up to the capacity.
	for _, capacity := range []int{16, 100} {
		tr := New(1, capacity)
		root := tr.Root("job")
		for i := 0; i < capacity+4; i++ {
			c := root.Start("cell")
			// Children and attrs of a dropped span must no-op, not panic.
			c.Uint("index", uint64(i)).Start("lookup").End()
			c.End()
		}
		if got := len(tr.Spans()); got != capacity {
			t.Errorf("%d spans recorded, want capacity %d", got, capacity)
		}
		if tr.Drops() == 0 {
			t.Errorf("capacity %d: no drops counted on a full buffer", capacity)
		}
	}
}

func TestAttrOverflowCounted(t *testing.T) {
	tr := New(1, 16)
	c := tr.Root("job")
	for i := 0; i < attrCap+2; i++ {
		c.Uint("k", uint64(i))
	}
	sp := tr.Spans()[0]
	if int(sp.NAttrs) != attrCap || sp.AttrDrops != 2 {
		t.Errorf("NAttrs=%d AttrDrops=%d, want %d and 2", sp.NAttrs, sp.AttrDrops, attrCap)
	}
}

// TestDisabledCtxIsFreeAndAllocFree is the tentpole witness: the zero
// Ctx no-ops every operation and allocates nothing, so instrumented
// paths cost zero when tracing is off.
func TestDisabledCtxIsFreeAndAllocFree(t *testing.T) {
	err := errors.New("x")
	allocs := testing.AllocsPerRun(1000, func() {
		var c Ctx
		child := c.Start("lookup").Uint("hit", 1).Str("key", "k").Error(err)
		child.Start("nested").End()
		child.End()
		if child.Enabled() || child.Span() != 0 {
			t.Fatal("disabled ctx claims to be enabled")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled Ctx allocated %.1f per run, want 0", allocs)
	}
}

// TestEnabledRecordingDoesNotGrowBuffer: recording within the first 16
// spans, the room New allocates up front, never reallocates the span
// buffer.
func TestEnabledRecordingDoesNotGrowBuffer(t *testing.T) {
	tr := New(1, 64)
	root := tr.Root("job")
	allocs := testing.AllocsPerRun(10, func() {
		root.Start("cell").Uint("index", 1).End()
	})
	if allocs != 0 {
		t.Errorf("recording allocated %.1f per span, want 0 (initial buffer)", allocs)
	}
}

func TestOnEndObserver(t *testing.T) {
	tr := New(1, 16)
	var mu sync.Mutex
	got := map[string]int{}
	tr.SetOnEnd(func(name string, dur time.Duration) {
		if dur < 0 {
			t.Errorf("observer saw negative duration for %s", name)
		}
		mu.Lock()
		got[name]++
		mu.Unlock()
	})
	root := tr.Root("job")
	root.Start("queue").End()
	root.Start("queue").End()
	root.End()
	if got["queue"] != 2 || got["job"] != 1 {
		t.Errorf("observer counts %v, want queue:2 job:1", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(1, 1024)
	root := tr.Root("job")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root.Start("cell").Uint("w", uint64(w)).End()
			}
		}(w)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span %d has ID %d", i, sp.ID)
		}
	}
}

// chromeDoc mirrors the exported envelope for validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Pid  int    `json:"pid"`
		Tid  int64  `json:"tid"`
		Args map[string]any
	} `json:"traceEvents"`
}

func TestWriteChrome(t *testing.T) {
	tr := New(0xabc, 32)
	root := tr.Root("job").Uint("cells", 2)
	for i := 0; i < 2; i++ {
		cell := root.Start("cell").Uint("index", uint64(i))
		q := cell.Start("queue")
		q.End()
		lk := cell.Start("lookup").Uint("hit", 0)
		lk.End()
		cp := cell.Start("compute").Str("key", "abcd")
		cp.End()
		cell.End()
	}
	open := root.Start("stream") // left open on purpose
	_ = open
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}

	var cells, spansX, metas int
	tids := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			spansX++
			if ev.Name == "cell" {
				cells++
				tids[ev.Tid] = true
				if ev.Args["parent"].(float64) != 1 {
					t.Errorf("cell span parent = %v, want 1 (the root)", ev.Args["parent"])
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if cells != 2 || len(tids) != 2 {
		t.Errorf("%d cell spans on %d tracks, want 2 on 2", cells, len(tids))
	}
	if spansX != 10 { // job + 2*(cell+queue+lookup+compute) + stream
		t.Errorf("%d X events, want 10", spansX)
	}
	if metas == 0 {
		t.Error("no metadata events emitted")
	}
	if !strings.Contains(buf.String(), "0000000000000abc") {
		t.Error("trace ID missing from process_name metadata")
	}

	// The open stream span must be closed against "now" and flagged.
	foundOpen := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "stream" {
			foundOpen = ev.Args["open"] == true && ev.Dur >= 0
		}
	}
	if !foundOpen {
		t.Error("open span not exported with args.open = true")
	}
}

// TestWriteChromeGolden pins the SHA-256 of the Chrome export of a
// trace with fixed span starts and durations, so the envelope,
// separators, track layout and args rendering stay byte-identical
// across commits.  The open span starts after "now", so its duration
// clamps to zero whatever the wall clock says.
func TestWriteChromeGolden(t *testing.T) {
	const want = "395b8221f8aee04773d1c154d1fef36bcfad7116e86561f5cc9941a54d779726"
	tr := New(0xabc, 16)
	tr.drops = 3
	sp := func(id, parent SpanID, name string, start, dur time.Duration, attrs ...Attr) Span {
		s := Span{ID: id, Parent: parent, Name: name, Start: start, Dur: dur}
		s.NAttrs = uint8(copy(s.Attrs[:], attrs))
		return s
	}
	tr.spans = append(tr.spans,
		sp(1, 0, "job", 0, 9500*time.Microsecond, Attr{Key: "cells", U: 2}),
		sp(2, 1, "cell", 100*time.Microsecond, 4*time.Millisecond, Attr{Key: "index", U: 0}),
		sp(3, 2, "lookup", 150*time.Microsecond, 1234*time.Nanosecond, Attr{Key: "hit", U: 0}),
		sp(4, 2, "compute", 300*time.Microsecond, 3*time.Millisecond,
			Attr{Key: "key", Str: "ab\"cd", IsStr: true}, Attr{Key: "error", Str: "boom\n", IsStr: true}),
		sp(5, 1, "cell", 4200*time.Microsecond, 5*time.Millisecond, Attr{Key: "index", U: 1}),
		sp(6, 5, "lookup", 4300*time.Microsecond, 20*time.Microsecond, Attr{Key: "hit", U: 1}),
		sp(7, 1, "stream", time.Hour, -1),
	)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("Chrome export digest %s, want %s\n%s", got, want, buf.String())
	}
}

// TestWriteChromeDeterministic: a settled trace exports byte-identical
// files on repeated calls.
func TestWriteChromeDeterministic(t *testing.T) {
	tr := New(5, 16)
	root := tr.Root("job")
	root.Start("cell").Uint("index", 0).End()
	root.End()
	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two exports differ:\n%s\n%s", a.String(), b.String())
	}
}
