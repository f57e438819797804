package pipetrace

import (
	"fmt"
	"io"

	"recyclesim/internal/obs"
)

// WriteChrome renders the trace in Chrome trace_event JSON (the
// JSON-array-of-events "traceEvents" form), loadable in Perfetto and
// chrome://tracing.  Each hardware context becomes one "process"
// (pid = context id); each traced instruction becomes one async event
// group (id = record id) holding the overall lifetime span plus nested
// spans for the stages it actually visited ("fetch", "queue",
// "execute") and nestable instants for the point events (rename,
// recycle-inject, reuse-bypass, writeback, commit, squash).  Fork,
// merge, and respawn instants are emitted as process-scoped instant
// events.  Timestamps are simulator cycles (1 ts = 1 cycle).
//
// finalCycle closes spans still open at the end of the run (an
// instruction in flight when the simulation stopped).  Output is
// deterministic: records are written in allocation order with fixed
// field order through obs.ChromeWriter, so identical runs produce
// byte-identical files.
func (r *Recorder) WriteChrome(w io.Writer, finalCycle uint64) error {
	cw := obs.NewChromeWriter(w)

	for _, ctx := range r.usedCtxs() {
		cw.Emit(chromeEvent{Name: "process_name", Ph: "M", Pid: ctx,
			Args: &chromeArgs{Name: fmt.Sprintf("ctx %d", ctx)}})
	}

	for i := range r.recs {
		chromeRecord(cw, &r.recs[i], finalCycle)
	}
	for i := range r.inst {
		in := &r.inst[i]
		cw.Emit(chromeEvent{Name: in.Stage.String(), Cat: "lifecycle", Ph: "i",
			Ts: in.Cycle, Pid: int(in.Ctx), S: "p",
			Args: &chromeArgs{PC: hex(in.PC), Arg: &in.Arg}})
	}
	return cw.Close()
}

// chromeEvent is one trace_event object.  Field order is the emission
// order (encoding/json preserves struct order), keeping output stable.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   uint64      `json:"ts"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	ID   *uint64     `json:"id,omitempty"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name      string  `json:"name,omitempty"`
	PC        string  `json:"pc,omitempty"`
	Seq       *uint64 `json:"seq,omitempty"`
	Arg       *uint64 `json:"arg,omitempty"`
	Recycled  *bool   `json:"recycled,omitempty"`
	Reused    *bool   `json:"reused,omitempty"`
	Committed *bool   `json:"committed,omitempty"`
	Squashed  *bool   `json:"squashed,omitempty"`
}

// chromeRecord emits one traced instruction: the outer async lifetime span
// and the nested stage spans/instants between its rename and its end.
func chromeRecord(cw *obs.ChromeWriter, rec *Record, finalCycle uint64) {
	pid := int(rec.Ctx)
	id := rec.ID
	start := rec.Rename
	if rec.Fetch != 0 {
		start = rec.Fetch
	}
	end := finalCycle
	switch {
	case rec.Retire != 0:
		end = rec.Retire
	case rec.Squash != 0:
		end = rec.Squash
	}
	if end < start {
		end = start
	}

	label := fmt.Sprintf("%#x %s", rec.PC, rec.Inst.String())
	cw.Emit(chromeEvent{Name: label, Cat: "inst", Ph: "b", Ts: start, Pid: pid, ID: &id,
		Args: &chromeArgs{PC: hex(rec.PC), Seq: &rec.Seq,
			Recycled: &rec.Recycled, Reused: &rec.Reused,
			Committed: &rec.Committed, Squashed: &rec.Squashed}})

	span := func(name string, from, to uint64) {
		cw.Emit(chromeEvent{Name: name, Cat: "inst", Ph: "b", Ts: from, Pid: pid, ID: &id})
		cw.Emit(chromeEvent{Name: name, Cat: "inst", Ph: "e", Ts: to, Pid: pid, ID: &id})
	}
	instant := func(name string, ts uint64) {
		cw.Emit(chromeEvent{Name: name, Cat: "inst", Ph: "n", Ts: ts, Pid: pid, ID: &id})
	}

	if rec.Fetch != 0 {
		span("fetch", rec.Fetch, rec.Rename)
	}
	if rec.Recycled {
		instant("recycle-inject", rec.Rename)
	}
	instant("rename", rec.Rename)
	if rec.Reused {
		instant("reuse-bypass", rec.Rename)
	}
	if rec.Queue != 0 {
		to := rec.Issue
		if to == 0 {
			to = end
		}
		span("queue", rec.Queue, to)
	}
	if rec.Issue != 0 {
		to := rec.Writeback
		if to == 0 {
			to = end
		}
		span("execute", rec.Issue, to)
	}
	if rec.Writeback != 0 {
		instant("writeback", rec.Writeback)
	}
	if rec.Retire != 0 {
		instant("commit", rec.Retire)
	}
	if rec.Squash != 0 {
		instant("squash", rec.Squash)
	}
	cw.Emit(chromeEvent{Name: label, Cat: "inst", Ph: "e", Ts: end, Pid: pid, ID: &id})
}

// usedCtxs returns the sorted set of context ids appearing in records
// or instants (for the process_name metadata events).
func (r *Recorder) usedCtxs() []int {
	var max int16 = -1
	for i := range r.recs {
		if r.recs[i].Ctx > max {
			max = r.recs[i].Ctx
		}
	}
	for i := range r.inst {
		if r.inst[i].Ctx > max {
			max = r.inst[i].Ctx
		}
	}
	if max < 0 {
		return nil
	}
	used := make([]bool, max+1)
	for i := range r.recs {
		used[r.recs[i].Ctx] = true
	}
	for i := range r.inst {
		used[r.inst[i].Ctx] = true
	}
	out := make([]int, 0, len(used))
	for ctx, ok := range used {
		if ok {
			out = append(out, ctx)
		}
	}
	return out
}

func hex(v uint64) string { return fmt.Sprintf("%#x", v) }
