package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// ChromeWriter emits one Chrome trace_event JSON document (the
// "traceEvents" envelope, loadable in Perfetto and chrome://tracing):
// the opening envelope, one event per line in Emit order, and the
// closing trailer.  Events are marshalled with encoding/json, so a
// struct's field order is its emission order and identical event
// sequences render byte-identically.  Callers own their event schemas;
// the writer owns only the envelope, the separators and the errors.
type ChromeWriter struct {
	bw  *bufio.Writer
	sep string
	err error
}

// NewChromeWriter opens a trace_event document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	return &ChromeWriter{bw: bw, sep: "\n"}
}

// Emit appends one event.  After the first marshalling error every
// later Emit is a no-op and Close reports that error.
func (cw *ChromeWriter) Emit(ev any) {
	if cw.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	cw.bw.WriteString(cw.sep)
	cw.sep = ",\n"
	cw.bw.Write(raw)
}

// Close writes the trailer and flushes, returning the first error from
// either marshalling or the underlying writer.
func (cw *ChromeWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	cw.bw.WriteString("\n]}\n")
	return cw.bw.Flush()
}
