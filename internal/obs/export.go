package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"

	"recyclesim/internal/stats"
)

// Snapshot bundles one run's exportable state: the raw counters, the
// telemetry, and (optionally) the flight-recorder contents.  Both
// exporters are deterministic — the same run produces byte-identical
// output — because every section is an ordered struct or slice, never a
// ranged map.
type Snapshot struct {
	Name    string
	Stats   *stats.Sim
	Metrics *Metrics
	Ring    *Ring
}

// NamedValue is one derived (float) statistic, named in snake_case.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NamedCounter is one raw counter, named in snake_case.  Index is >= 0
// for per-program counters ([]uint64 fields) and -1 for scalars.
type NamedCounter struct {
	Name  string
	Index int
	Value uint64
}

// Counters flattens every uint64 (and []uint64) field of s, in
// declaration order, into named counters.  Reflection keeps the export
// in lockstep with the stats struct: a newly added counter shows up in
// both exporters without touching this package.
func Counters(s *stats.Sim) []NamedCounter {
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	out := make([]NamedCounter, 0, t.NumField()+4)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := snake(f.Name)
		switch f.Type.Kind() {
		case reflect.Uint64:
			out = append(out, NamedCounter{Name: name, Index: -1, Value: v.Field(i).Uint()})
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Uint64 {
				continue
			}
			fv := v.Field(i)
			for j := 0; j < fv.Len(); j++ {
				out = append(out, NamedCounter{Name: name, Index: j, Value: fv.Index(j).Uint()})
			}
		}
	}
	return out
}

// Derived evaluates every niladic float64-returning method of s and
// returns the results sorted by snake_case name.  Non-finite values are
// clamped to 0 so the JSON exporter cannot fail on a future unguarded
// ratio (the stats tests additionally reject such methods outright).
func Derived(s *stats.Sim) []NamedValue {
	v := reflect.ValueOf(s)
	t := v.Type()
	out := make([]NamedValue, 0, t.NumMethod())
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if m.Type.NumIn() != 1 || m.Type.NumOut() != 1 || m.Type.Out(0).Kind() != reflect.Float64 {
			continue
		}
		val := v.Method(i).Call(nil)[0].Float()
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		out = append(out, NamedValue{Name: snake(m.Name), Value: val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// snake converts a Go CamelCase identifier (initialisms included:
// "IPC" → "ipc", "BTBMisses" → "btb_misses") to snake_case.
func snake(name string) string {
	rs := []rune(name)
	out := make([]rune, 0, len(rs)+4)
	for i, r := range rs {
		if isUpper(r) {
			prevLower := i > 0 && !isUpper(rs[i-1])
			nextLower := i+1 < len(rs) && !isUpper(rs[i+1])
			if i > 0 && (prevLower || nextLower) {
				out = append(out, '_')
			}
			r += 'a' - 'A'
		}
		out = append(out, r)
	}
	return string(out)
}

func isUpper(r rune) bool { return r >= 'A' && r <= 'Z' }

type jsonBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

type jsonHist struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []jsonBucket `json:"buckets"`
}

func histJSON(h *Hist) jsonHist {
	out := jsonHist{Count: h.Count, Sum: h.Sum, Max: h.Max, Mean: h.Mean()}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		le := "+Inf"
		if upper, ok := BucketUpper(i); ok {
			le = strconv.FormatUint(upper, 10)
		}
		out.Buckets = append(out.Buckets, jsonBucket{LE: le, Count: cum})
	}
	return out
}

type jsonCause struct {
	Cause      string  `json:"cause"`
	SlotCycles uint64  `json:"slot_cycles"`
	Fraction   float64 `json:"fraction"`
}

type jsonEvent struct {
	Cycle uint64 `json:"cycle"`
	Stage string `json:"stage"`
	Ctx   int16  `json:"ctx"`
	Cause string `json:"cause,omitempty"`
	Seq   uint64 `json:"seq"`
	PC    uint64 `json:"pc"`
	Arg   uint64 `json:"arg"`
}

type jsonCounter struct {
	Name  string `json:"name"`
	Index *int   `json:"index,omitempty"`
	Value uint64 `json:"value"`
}

type jsonHists struct {
	ALOccupancy      jsonHist `json:"al_occupancy"`
	RecycleStreamLen jsonHist `json:"recycle_stream_len"`
	ForkLifetime     jsonHist `json:"fork_lifetime"`
}

type jsonDoc struct {
	Name            string        `json:"name,omitempty"`
	Counters        []jsonCounter `json:"counters"`
	Derived         []NamedValue  `json:"derived"`
	SlotCycles      []jsonCause   `json:"slot_cycles"`
	SlotCyclesTotal uint64        `json:"slot_cycles_total"`
	Histograms      *jsonHists    `json:"histograms,omitempty"`
	FlightRecorder  []jsonEvent   `json:"flight_recorder,omitempty"`
}

// WriteJSON writes the snapshot as indented JSON.  Output is
// byte-identical across identical runs.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	doc := jsonDoc{Name: s.Name}
	for _, c := range Counters(s.Stats) {
		jc := jsonCounter{Name: c.Name, Value: c.Value}
		if c.Index >= 0 {
			idx := c.Index
			jc.Index = &idx
		}
		doc.Counters = append(doc.Counters, jc)
	}
	doc.Derived = Derived(s.Stats)
	m := s.Metrics
	if m != nil {
		for cause := CauseNone + 1; cause < NumCauses; cause++ {
			doc.SlotCycles = append(doc.SlotCycles, jsonCause{
				Cause:      cause.String(),
				SlotCycles: m.SlotCycles[cause],
				Fraction:   m.SlotFraction(cause),
			})
		}
		doc.SlotCyclesTotal = m.TotalSlotCycles()
		if m.Hists {
			doc.Histograms = &jsonHists{
				ALOccupancy:      histJSON(&m.ALOcc),
				RecycleStreamLen: histJSON(&m.StreamLen),
				ForkLifetime:     histJSON(&m.ForkLife),
			}
		}
	}
	if s.Ring != nil {
		for _, e := range s.Ring.Events() {
			je := jsonEvent{Cycle: e.Cycle, Stage: e.Stage.String(), Ctx: e.Ctx,
				Seq: e.Seq, PC: e.PC, Arg: e.Arg}
			if e.Cause != CauseNone {
				je.Cause = e.Cause.String()
			}
			doc.FlightRecorder = append(doc.FlightRecorder, je)
		}
	}
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// WriteText writes the snapshot as a Prometheus-style text exposition:
// one `sim_<name>[{labels}] <value>` line per counter, derived metric,
// stall cause, and histogram bucket.  Output is byte-identical across
// identical runs.
func (s *Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if s.Name != "" {
		bw.WriteString("# run " + s.Name + "\n")
	}
	bw.WriteString("# raw simulation counters\n")
	for _, c := range Counters(s.Stats) {
		if c.Index >= 0 {
			bw.WriteString("sim_" + c.Name + "{program=\"" + strconv.Itoa(c.Index) + "\"} ")
		} else {
			bw.WriteString("sim_" + c.Name + " ")
		}
		bw.WriteString(strconv.FormatUint(c.Value, 10) + "\n")
	}
	bw.WriteString("# derived metrics\n")
	for _, d := range Derived(s.Stats) {
		bw.WriteString("sim_" + d.Name + " " + formatFloat(d.Value) + "\n")
	}
	if m := s.Metrics; m != nil {
		bw.WriteString("# rename slot-cycle attribution\n")
		for cause := CauseNone + 1; cause < NumCauses; cause++ {
			bw.WriteString("sim_slot_cycles{cause=\"" + cause.String() + "\"} " +
				strconv.FormatUint(m.SlotCycles[cause], 10) + "\n")
		}
		bw.WriteString("sim_slot_cycles_total " + strconv.FormatUint(m.TotalSlotCycles(), 10) + "\n")
		if m.Hists {
			writeHistText(bw, "sim_al_occupancy", &m.ALOcc)
			writeHistText(bw, "sim_recycle_stream_len", &m.StreamLen)
			writeHistText(bw, "sim_fork_lifetime", &m.ForkLife)
		}
	}
	return bw.Flush()
}

// writeHistText emits one histogram in the Prometheus convention:
// cumulative `_bucket{le="..."}` lines plus `_sum`, `_count` and a
// non-standard `_max` gauge.
func writeHistText(bw *bufio.Writer, name string, h *Hist) {
	HistText(bw, name, "", h)
}

// HistText writes one histogram as Prometheus text exposition lines:
// cumulative `_bucket{le="..."}` lines plus `_sum`, `_count` and a
// non-standard `_max` gauge.  labels, when non-empty, is a preformatted
// `key="value"` list merged into every line's label set; the job
// server reuses this for its per-stage service latency histograms.
func HistText(bw *bufio.Writer, name, labels string, h *Hist) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		le := "+Inf"
		if upper, ok := BucketUpper(i); ok {
			le = strconv.FormatUint(upper, 10)
		}
		bw.WriteString(name + "_bucket{" + labels + sep + "le=\"" + le + "\"} " + strconv.FormatUint(cum, 10) + "\n")
	}
	suffix := " "
	if labels != "" {
		suffix = "{" + labels + "} "
	}
	bw.WriteString(name + "_sum" + suffix + strconv.FormatUint(h.Sum, 10) + "\n")
	bw.WriteString(name + "_count" + suffix + strconv.FormatUint(h.Count, 10) + "\n")
	bw.WriteString(name + "_max" + suffix + strconv.FormatUint(h.Max, 10) + "\n")
}

// formatFloat renders a float deterministically (shortest round-trip
// form, matching strconv's exact conversion).
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Dump renders the retained events oldest-first under a "flight
// recorder" header, one line each: the section both the core's
// machine dump and a failed run's crash report carry.  A nil or empty
// ring renders as "".
func (r *Ring) Dump() string {
	if r == nil || r.Len() == 0 {
		return ""
	}
	b := []byte("flight recorder (last " + strconv.Itoa(r.Len()) + " of " + strconv.FormatUint(r.Total(), 10) + " events):\n")
	for _, e := range r.Events() {
		b = append(b, "  "+e.String()+"\n"...)
	}
	return string(b)
}
