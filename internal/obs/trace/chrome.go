package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"recyclesim/internal/obs"
)

// WriteChrome renders the trace in Chrome trace_event JSON through
// obs.ChromeWriter, the envelope internal/obs/pipetrace's export shares:
// fixed field order, events in allocation order, so a settled trace
// renders byte-identically on every export.
//
// Every span becomes one complete ("X") event with microsecond
// timestamps.  All events share pid 0 ("recycled"); the track (tid)
// layout groups each top-level subtree: the root span renders on tid 0
// and every child of the root (a "cell" in a job trace) gets its own
// tid, inherited by its descendants — so the exported file reads as
// one span tree per cell.  Spans still open at export time are closed
// against a consistent "now" and tagged args.open = true.  Span and
// parent IDs plus the typed attributes travel in args, so the tree is
// reconstructible from the JSON alone.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	now := t.Elapsed()
	cw := obs.NewChromeWriter(w)
	meta := func(name string, tid int64, label string) {
		cw.Emit(chromeMeta{
			Name: name, Ph: "M", Pid: 0, Tid: tid,
			Args: chromeMetaArgs{Name: label},
		})
	}

	meta("process_name", 0, fmt.Sprintf("recycled trace %s (drops %d)", t.id, t.Drops()))

	// tracks[id] is the tid a span renders on; parents precede children
	// in allocation order, so one forward pass settles every span.
	tracks := make([]int64, len(spans)+1)
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Parent == 0:
			tracks[sp.ID] = 0
		case spans[sp.Parent-1].Parent == 0:
			tracks[sp.ID] = int64(sp.ID)
			meta("thread_name", int64(sp.ID), fmt.Sprintf("%s s%d", sp.Name, sp.ID))
		default:
			tracks[sp.ID] = tracks[sp.Parent]
		}
	}

	for i := range spans {
		sp := &spans[i]
		dur := sp.Dur
		open := dur < 0
		if open {
			dur = now - sp.Start
			if dur < 0 {
				dur = 0
			}
		}
		cw.Emit(&chromeEvent{
			Name: sp.Name, Cat: "svc", Ph: "X",
			Ts: sp.Start.Microseconds(), Dur: dur.Microseconds(),
			Pid: 0, Tid: tracks[sp.ID],
			Args: spanArgs(sp, open),
		})
	}
	return cw.Close()
}

// chromeEvent is one complete-span event; field order is emission
// order (encoding/json preserves struct order).
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   int64           `json:"ts"`
	Dur  int64           `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int64           `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args chromeMetaArgs `json:"args"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

// spanArgs renders a span's args object by hand so attributes keep
// their insertion order (a ranged map would not).
func spanArgs(sp *Span, open bool) json.RawMessage {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"span":%d,"parent":%d`, sp.ID, sp.Parent)
	for i := 0; i < int(sp.NAttrs); i++ {
		a := &sp.Attrs[i]
		key, _ := json.Marshal(a.Key)
		if a.IsStr {
			val, _ := json.Marshal(a.Str)
			fmt.Fprintf(&b, ",%s:%s", key, val)
		} else {
			fmt.Fprintf(&b, ",%s:%d", key, a.U)
		}
	}
	if open {
		b.WriteString(`,"open":true`)
	}
	b.WriteByte('}')
	return b.Bytes()
}
