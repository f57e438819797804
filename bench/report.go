package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// value is one measurement with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects everything one workload run measures and checks.
type report struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	order   []string
	metrics map[string]value

	digest    digest
	attempted int
	failed    int
	failures  []string

	// cells holds the traced run's per-cell host-time breakdown.
	cells []cellBreakdown

	tr   *tracer // nil unless traced
	host *hostSpeed
}

// cellBreakdown splits one cell's host time per committed instruction
// into simulated work per commit times host time per unit of work.
type cellBreakdown struct {
	Cell             string  `json:"cell"`
	IPC              float64 `json:"ipc"`
	NsPerCycle       float64 `json:"ns_per_cycle"`
	RenamedPerCommit float64 `json:"renamed_per_commit"`
	NsPerRenamed     float64 `json:"ns_per_renamed"`
	NsPerCommit      float64 `json:"ns_per_commit"`
}

func newReport(o *options) *report {
	r := &report{
		workload: o.workload,
		seed:     o.seed,
		seconds:  o.seconds,
		traced:   o.trace,
		metrics:  map[string]value{},
		host:     newHostSpeed(),
	}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = value{v, unit}
}

// op counts one attempted operation (a simulated cell or a service
// request) and records its failure.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// check counts one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// digest hashes every cell's simulated statistics in a fixed order.  A
// change that only makes the simulator faster leaves it unchanged.
type digest struct {
	lines []string
}

func (d *digest) add(cell string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%+v", v))
	}
	d.lines = append(d.lines, cell+" "+string(b))
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, l := range d.lines {
		io.WriteString(h, l)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// print writes every metric as "name value unit", then the digest and
// any failures.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		v := r.metrics[name]
		fmt.Fprintf(w, "%s %.6g %s\n", name, v.Value, v.Unit)
	}
	for _, c := range r.cells {
		fmt.Fprintf(w, "cell %s ipc %.4f ns_per_cycle %.1f renamed_per_commit %.4f ns_per_renamed %.1f ns_per_commit %.1f\n",
			c.Cell, c.IPC, c.NsPerCycle, c.RenamedPerCommit, c.NsPerRenamed, c.NsPerCommit)
	}
	fmt.Fprintf(w, "stats_digest %s\n", r.digest.sum())
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// summary is the last line of standard output: the metrics the
// benchmark description declares for this mode, and nothing else.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *report) summary(declared []metricSpec) (summary, error) {
	s := summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range declared {
		v, ok := r.metrics[m.Name]
		if !ok {
			return s, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return s, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		s.Metrics[m.Name] = v
	}
	return s, nil
}

// header identifies the host, code and run length a record was
// measured with; -compare refuses to mix hosts or run lengths.
type header struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
}

func (h header) host() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d", h.CPU, h.Nproc, h.GOMAXPROCS)
}

func newHeader(seed uint64, seconds float64) header {
	return header{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		c += "+dirty"
	}
	return c
}

// record is one line of an -out file.
type record struct {
	Header    header           `json:"header"`
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Traced    bool             `json:"traced"`
	Metrics   map[string]value `json:"metrics"`
	Digest    string           `json:"stats_digest"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Cells     []cellBreakdown  `json:"cells,omitempty"`
}

// appendRecord appends the run's record as one JSON line.
func (r *report) appendRecord(path string) error {
	rec := record{
		Header:    newHeader(r.seed, r.seconds),
		Workload:  r.workload,
		Seed:      r.seed,
		Traced:    r.traced,
		Metrics:   r.metrics,
		Digest:    r.digest.sum(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
		Cells:     r.cells,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
