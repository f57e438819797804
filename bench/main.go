// Command bench measures the recycling simulator and the job service
// around it from outside: it times calls into the public functions of
// recyclesim and its internal packages, checks every result, prints
// one metric per line as "name value unit", and ends with a one-line
// JSON summary.  Run it from this directory:
//
//	go run . -workload detailed-smt -seed 3                 # end-to-end metrics
//	go run . -workload sampled -trace 1 -trace-out t.json   # per-layer metrics and spans
//	go run . -seed 3 -out set.jsonl                         # every workload, one process each
//	go run . -compare base.jsonl -- change.jsonl            # verdict per workload and metric
//
// README.md describes the workloads, the metrics, and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	smoke    bool
	tmp      string
}

// benchSpec is BENCHMARK.json: the workloads, the metrics with their
// units, and the bounds -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workloads maps each workload named in BENCHMARK.json to the function
// that runs it; README.md gives the reason for each.
var workloads = map[string]func(*options, *report) error{
	"detailed-smt": func(o *options, r *report) error { return runDetailed(o, r, "SMT", 500_000) },
	"detailed-rec": func(o *options, r *report) error { return runDetailed(o, r, "REC/RS/RU", 400_000) },
	"sampled":      runSampled,
	"service":      runService,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark description: workloads, metric units and bounds")
	fs.StringVar(&o.workload, "workload", "", "run this workload only (default: every workload, each in its own process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the generated programs and the order of the service's cells")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the simulation workloads keep measuring (the service workload sends a fixed number of jobs)")
	fs.IntVar(&traceFlag, "trace", 0, "1: run one untraced and one traced round and print the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans here as Chrome trace_event JSON")
	fs.StringVar(&o.out, "out", "", "append each run's record, with a host header, to this JSON-lines file")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and one round, to check the benchmark itself")
	fs.StringVar(&o.tmp, "tmp", "", "directory for the service's stores (default: the system temp directory)")
	compare := fs.Bool("compare", false, "compare two sets of records: -compare A.jsonl... -- B.jsonl...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload == "" {
		return runSet(spec, args, stdout, stderr)
	}
	return runOne(&o, spec, stdout, stderr)
}

// runSet runs every workload in a child process of its own, one after
// another, so that peak memory and set-up time belong to one workload.
func runSet(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range spec.Workloads {
		fmt.Fprintf(stdout, "== %s\n", w.Name)
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

func runOne(o *options, spec *benchSpec, stdout, stderr io.Writer) int {
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	// Every workload keeps one goroutine busy at a time, and each vCPU of
	// the reference machine changes speed on its own, so a run is held to
	// one of them.  Garbage collection then runs in the measured goroutine,
	// as a fixed share of its work, instead of beside it on the other.
	runtime.GOMAXPROCS(1)
	r := newReport(o)
	start := time.Now()
	if err := fn(o, r); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	r.set("host.slowdown", median(r.host.all), "ratio")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}
	sum, err := r.summary(declared)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	r.print(stdout)
	fmt.Fprintf(stdout, "elapsed_s %.3f\n", time.Since(start).Seconds())
	if o.out != "" {
		if err := r.appendRecord(o.out); err != nil {
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	if o.trace && o.traceOut != "" {
		if err := r.tr.write(o.traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: -trace-out: %v\n", err)
			return 1
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !sum.Correct {
		return 1
	}
	return 0
}
