// Package trace is the service-side request tracing layer: lightweight
// request-scoped spans (trace ID, span ID, parent links, monotonic
// start/duration, a few typed attributes) recorded into a bounded
// per-request buffer and exported as Chrome trace_event JSON.
//
// It is the service twin of internal/obs/pipetrace: pipetrace
// attributes simulated cycles to pipeline stages inside one run, this
// package attributes wall-clock to request stages across the job
// service (queue wait, store lookup, single-flight share, compute
// attempts, stream delivery).  It deliberately reads the wall clock and
// uses sync, so it lives outside the simulator's determinism scope
// (lint.NonSimPackages) and must never be imported by simulation
// packages.
//
// The whole API is nil-safe through the Ctx handle: a zero Ctx (no
// trace attached) turns every operation into a no-op that performs no
// allocation, so instrumented hot paths (the store hit path) cost
// nothing when tracing is disabled — witnessed by the alloc tests here
// and in internal/store.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"sync"
	"time"
)

// ID is a 64-bit trace identifier, rendered as 16 lowercase hex digits.
// The zero ID means "no trace" and is never generated.
type ID uint64

// NewID returns a random non-zero trace ID.
func NewID() ID {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed
		// fallback keeps the service running if it somehow does.
		return ID(1)
	}
	id := binary.BigEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return ID(id)
}

// String renders the ID as 16 hex digits (zero-padded).
func (id ID) String() string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	v := uint64(id)
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

// ParseID parses a hex trace ID (1-16 digits, e.g. an incoming
// propagation header).  The zero ID is rejected like malformed input.
func ParseID(s string) (ID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return ID(v), true
}

// SpanID identifies one span within its trace (1-based; 0 = none).
// Parent links use SpanIDs, and a parent is always allocated before its
// children, so Parent < ID for every span.
type SpanID int32

// attrCap is the fixed per-span attribute capacity; attributes beyond
// it are dropped (counted in Span.AttrDrops) rather than allocated.
const attrCap = 4

// Attr is one typed span attribute: either a uint64 or a string value.
type Attr struct {
	Key   string
	Str   string
	U     uint64
	IsStr bool
}

// Span is one recorded operation.  Start is the monotonic offset from
// the trace's begin instant; Dur is negative while the span is open.
type Span struct {
	ID        SpanID
	Parent    SpanID
	Name      string
	Start     time.Duration
	Dur       time.Duration
	Attrs     [attrCap]Attr
	NAttrs    uint8
	AttrDrops uint8
}

// Attr returns the value of the named attribute, if set.
func (s *Span) Attr(key string) (Attr, bool) {
	for i := 0; i < int(s.NAttrs); i++ {
		if s.Attrs[i].Key == key {
			return s.Attrs[i], true
		}
	}
	return Attr{}, false
}

// Trace is one request's span collection.  The span buffer starts
// small and grows on demand up to the limit fixed at New; spans past
// the limit are dropped (counted, never blocking), so a trace's memory
// footprint is bounded at admission time but a short request pays only
// for the spans it records.
//
// All methods are safe for concurrent use; a job's cells record spans
// from every worker goroutine at once.
type Trace struct {
	id    ID
	begin time.Time

	// onEnd, when non-nil, observes every completed span (the job
	// server feeds its per-stage latency histograms with it).  It runs
	// outside the trace lock on the goroutine that ended the span.
	onEnd func(name string, dur time.Duration)

	mu    sync.Mutex
	spans []Span
	limit int // most spans recorded
	drops uint64
}

// New builds a trace that records up to capacity spans (minimum 16).
// Room for the first 16 is allocated up front.
func New(id ID, capacity int) *Trace {
	const initial = 16
	return &Trace{id: id, begin: time.Now(), spans: make([]Span, 0, initial), limit: max(capacity, initial)}
}

// ID returns the trace identifier.
func (t *Trace) ID() ID { return t.id }

// SetOnEnd installs the completed-span observer.  Install before
// recording begins; the observer must be safe for concurrent use.
func (t *Trace) SetOnEnd(f func(name string, dur time.Duration)) { t.onEnd = f }

// Drops reports how many spans were discarded because the buffer was
// full.
func (t *Trace) Drops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Spans returns a snapshot copy of the recorded spans in allocation
// order.  Open spans keep their negative Dur; Elapsed gives the
// exporter a consistent "now" to close them against.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Elapsed is the monotonic time since the trace began.
func (t *Trace) Elapsed() time.Duration { return time.Since(t.begin) }

// Root starts a parentless span and returns its handle.
func (t *Trace) Root(name string) Ctx { return Ctx{t: t}.Start(name) }

// Ctx is the handle threaded through a request path: a trace plus the
// current span.  The zero Ctx is the disabled tracer — every method is
// a no-op costing zero allocations — so instrumented code never
// branches on "is tracing on".
type Ctx struct {
	t    *Trace
	span SpanID
}

// Enabled reports whether a trace is attached.
func (c Ctx) Enabled() bool { return c.t != nil }

// Span returns the current span ID (0 when disabled).
func (c Ctx) Span() SpanID { return c.span }

// Start opens a child span under the current one and returns its
// handle.  When the buffer is full the span is dropped and a disabled
// Ctx comes back, so the dropped span's children and attributes drop
// with it.
func (c Ctx) Start(name string) Ctx {
	if c.t == nil {
		return Ctx{}
	}
	t := c.t
	start := time.Since(t.begin)
	t.mu.Lock()
	if len(t.spans) == t.limit {
		t.drops++
		t.mu.Unlock()
		return Ctx{}
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: c.span, Name: name, Start: start, Dur: -1})
	t.mu.Unlock()
	return Ctx{t: t, span: id}
}

// End closes the span (idempotent) and feeds the trace's observer.
func (c Ctx) End() {
	if c.t == nil {
		return
	}
	t := c.t
	end := time.Since(t.begin)
	t.mu.Lock()
	sp := &t.spans[c.span-1]
	if sp.Dur >= 0 {
		t.mu.Unlock()
		return
	}
	sp.Dur = end - sp.Start
	name, dur := sp.Name, sp.Dur
	t.mu.Unlock()
	if t.onEnd != nil {
		t.onEnd(name, dur)
	}
}

// attr appends one attribute to the current span (dropped, counted,
// when the fixed attribute array is full).
func (c Ctx) attr(a Attr) Ctx {
	t := c.t
	t.mu.Lock()
	sp := &t.spans[c.span-1]
	if int(sp.NAttrs) == attrCap {
		sp.AttrDrops++
	} else {
		sp.Attrs[sp.NAttrs] = a
		sp.NAttrs++
	}
	t.mu.Unlock()
	return c
}

// Uint attaches an integer attribute; returns c for chaining.
func (c Ctx) Uint(key string, v uint64) Ctx {
	if c.t == nil {
		return c
	}
	return c.attr(Attr{Key: key, U: v})
}

// Str attaches a string attribute; returns c for chaining.
func (c Ctx) Str(key, v string) Ctx {
	if c.t == nil {
		return c
	}
	return c.attr(Attr{Key: key, Str: v, IsStr: true})
}

// Error attaches err's message under the "error" key.  The message is
// only rendered when tracing is enabled, so the disabled path never
// pays for err.Error().
func (c Ctx) Error(err error) Ctx {
	if c.t == nil || err == nil {
		return c
	}
	return c.attr(Attr{Key: "error", Str: err.Error(), IsStr: true})
}
