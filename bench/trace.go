package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps spans in memory and writes them as Chrome trace_event
// JSON when the run ends.  The spans are recorded by this benchmark
// around its calls into each layer; the service's own request spans
// are imported from its trace endpoint under a second process id.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per span.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

type span struct {
	name       string
	id, parent int
	cell       int // the cell the span works for, -1 for none
	pid        int
	begin, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, cell: cell, begin: now, end: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent, cell, pid int, begin, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, cell: cell, pid: pid, begin: begin, end: end})
	return len(t.spans)
}

// since is the tracer clock: time elapsed since it was created.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.start) }

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write renders every span as a complete ("X") event.  Spans of one
// cell share a track (tid = cell + 1); spans for no cell sit on tid 0.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString("{\"traceEvents\":[")
	for i, s := range t.spans {
		end := s.end
		if end < 0 {
			end = s.begin
		}
		ev := chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.begin) / 1e3,
			Dur: float64(end-s.begin) / 1e3,
			Pid: s.pid, Tid: s.cell + 1,
			Args: map[string]int{"span": s.id, "parent": s.parent, "cell": s.cell},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			bw.WriteString(",")
		}
		bw.WriteString("\n")
		bw.Write(b)
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
