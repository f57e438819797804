package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the output against BENCHMARK.json: every declared metric of
// the mode is printed with its unit, every check passes, and the
// summary line carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		for _, trace := range []string{"0", "1"} {
			w, trace := w.Name, trace
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				declared := spec.EndToEnd
				if trace == "1" {
					declared = spec.PerLayer
				}
				out := runSmoke(t, "-workload", w, "-trace", trace,
					"-trace-out", filepath.Join(t.TempDir(), "trace.json"))
				checkOutput(t, out, declared)
			})
		}
	}
}

func runSmoke(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-seed", "7", "-tmp", t.TempDir()}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func checkOutput(t *testing.T, out string, declared []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 3 {
			if _, err := strconv.ParseFloat(f[1], 64); err == nil {
				printed[f[0]] = f[2]
			}
		}
	}
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("summary %+v\n%s", sum, out)
	}
	if len(sum.Metrics) != len(declared) {
		t.Errorf("summary has %d metrics, want the %d declared", len(sum.Metrics), len(declared))
	}
	for _, m := range declared {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("metric %s printed with unit %q (present %v), want %q", m.Name, unit, ok, m.Unit)
		}
		if v, ok := sum.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("summary metric %s = %+v, want unit %q", m.Name, v, m.Unit)
		}
	}
	if !strings.Contains(out, "stats_digest ") {
		t.Errorf("no stats_digest line")
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	host := header{Nproc: 2, GOMAXPROCS: 2, CPU: "test cpu", Seconds: 15}
	write := func(name string, h header, scale float64) string {
		path := filepath.Join(dir, name)
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			rec := record{Header: h, Workload: spec.Workloads[0].Name, Seed: uint64(i), Metrics: map[string]value{}, Digest: "d"}
			for _, m := range spec.EndToEnd {
				v := 100 * (1 + 0.002*float64(i%3))
				if m.Better == "lower" {
					v *= scale
				} else {
					v /= scale
				}
				rec.Metrics[m.Name] = value{v, m.Unit}
			}
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", host, 1)
	same := write("same.jsonl", host, 1)
	slow := write("slow.jsonl", host, 1.5)
	fast := write("fast.jsonl", host, 0.5)
	other := write("other.jsonl", header{Nproc: 8, GOMAXPROCS: 8, CPU: "other cpu", Seconds: 15}, 1)
	longer := write("longer.jsonl", header{Nproc: 2, GOMAXPROCS: 2, CPU: "test cpu", Seconds: 30}, 1)
	for _, tc := range []struct {
		b       string
		code    int
		verdict string
	}{
		{same, 0, "unchanged"},
		{slow, 1, "worse"},
		{fast, 0, "better"},
		{other, 2, ""},
		{longer, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := runCompare(spec, []string{base, "--", tc.b}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.verdict) {
			t.Errorf("compare with %s: exit %d, want %d with verdict %q\n%s%s",
				filepath.Base(tc.b), code, tc.code, tc.verdict, stdout.String(), stderr.String())
		}
	}
}
