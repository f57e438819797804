// Command recyclesim runs one simulation: a set of workloads on a
// machine configuration with a feature preset, printing IPC and the
// recycling statistics.
//
// Usage:
//
//	recyclesim -machine big.2.16 -features REC/RS/RU -workloads compress,gcc -insts 500000
//
// Sampled mode (-sample) fast-forwards on the golden emulator with
// functional warming and estimates IPC from periodic detailed
// intervals; see -sample-period, -sample-interval, -sample-warmup:
//
//	recyclesim -sample -features REC/RS/RU -workloads gcc -insts 2000000
//
// Exit status is 0 on success, 1 when the simulation itself fails, and
// 2 on bad flags or unknown machine/feature/workload names.  A flag the
// chosen mode would ignore (-metrics or -pipetrace with -sample,
// -sample-period without it) and a schedule sampled mode would reject
// are bad flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"recyclesim"
	"recyclesim/internal/obs/server"
	"recyclesim/internal/sweep"
)

// parseRange parses a "lo:hi" bound pair ("" means unbounded, values
// accept 0x-prefixed hex).
func parseRange(s string) (lo, hi uint64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q is not of the form lo:hi", s)
	}
	if lo, err = strconv.ParseUint(a, 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad lower bound %q: %v", a, err)
	}
	if hi, err = strconv.ParseUint(b, 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad upper bound %q: %v", b, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q is empty (hi < lo)", s)
	}
	return lo, hi, nil
}

// writeHeapProfile writes a heap profile to path, when one was asked for.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	// SIGINT cancels the run cooperatively: the simulation stops at its
	// next cancellation poll and the partial statistics are printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return runCtx(context.Background(), args, stdout, stderr)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recyclesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "big.2.16", "machine configuration: "+strings.Join(recyclesim.MachineNames(), ", "))
	features := fs.String("features", "REC/RS/RU", "architecture: "+strings.Join(recyclesim.PresetNames(), ", "))
	workloads := fs.String("workloads", "compress", "comma-separated benchmark names (see -list)")
	insts := fs.Uint64("insts", 500_000, "committed-instruction budget")
	policy := fs.String("altpolicy", "nostop", "alternate-path policy: stop, fetch, nostop")
	limit := fs.Int("altlimit", 32, "alternate-path instruction limit")
	list := fs.Bool("list", false, "list built-in workloads and exit")
	metricsJSON := fs.String("metrics", "", "write a JSON telemetry snapshot to this file (\"-\" for stdout)")
	metricsText := fs.String("metrics-text", "", "write a Prometheus-style text snapshot to this file (\"-\" for stdout)")
	flightrec := fs.Int("flightrec", 0, "record the last N pipeline events and include them in snapshots")
	pipetraceOut := fs.String("pipetrace", "", "write a Chrome trace_event JSON pipetrace to this file (\"-\" for stdout; open in Perfetto)")
	pipetraceKonata := fs.String("pipetrace-konata", "", "write a Konata-style text pipetrace to this file (\"-\" for stdout)")
	pipetraceSample := fs.Uint64("pipetrace-sample", 1, "trace 1 in N renamed instructions")
	pipetracePC := fs.String("pipetrace-pc", "", "restrict tracing to PC range \"lo:hi\" (0x-prefixed hex ok)")
	pipetraceCycles := fs.String("pipetrace-cycles", "", "restrict tracing to instructions renamed in cycle window \"lo:hi\"")
	pipetraceMax := fs.Int("pipetrace-max", 1<<20, "hard cap on traced instructions (excess counted, not recorded)")
	sampleMode := fs.Bool("sample", false, "sampled simulation: fast-forward on the emulator with functional warming, estimate IPC from periodic detailed intervals")
	samplePeriod := fs.Uint64("sample-period", 0, "sampling period P in instructions (0 = default 20000)")
	sampleInterval := fs.Uint64("sample-interval", 0, "measured instructions per interval L (0 = default 1000)")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "detailed detached-warmup length W per interval (0 = default 1000)")
	obsListen := fs.String("obs-listen", "", "serve /metrics, /progress, /healthz and pprof on this address during the run (e.g. \":0\")")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; an expired run exits 1 with its partial statistics")
	watchdog := fs.String("watchdog", "", "forward-progress window in cycles: a number, or \"off\" (default 50000)")
	crashDir := fs.String("crash-dir", "", "persist a crash bundle here when the run panics or livelocks")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "recyclesim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *list {
		for _, n := range recyclesim.Workloads() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	// Each mode rejects the flags only the other mode reads, so a
	// requested output is never silently not written.
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		detailedOnly := strings.HasPrefix(f.Name, "pipetrace")
		switch f.Name {
		case "metrics", "metrics-text", "flightrec", "obs-listen", "crash-dir":
			detailedOnly = true
		}
		if *sampleMode && detailedOnly || !*sampleMode && strings.HasPrefix(f.Name, "sample-") {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		mode := "a detailed run (no -sample)"
		if *sampleMode {
			mode = "-sample mode"
		}
		fmt.Fprintf(stderr, "recyclesim: %s would be ignored in %s\n", strings.Join(ignored, ", "), mode)
		return 2
	}
	sampling := &recyclesim.Sampling{
		Period:      *samplePeriod,
		IntervalLen: *sampleInterval,
		WarmupLen:   *sampleWarmup,
	}
	if *sampleMode {
		if err := sampling.Validate(); err != nil {
			fmt.Fprintf(stderr, "recyclesim: bad sampling schedule: %v\n", err)
			return 2
		}
	}

	mach, ok := recyclesim.LookupMachine(*machine)
	if !ok {
		fmt.Fprintf(stderr, "recyclesim: unknown machine %q (known: %s)\n",
			*machine, strings.Join(recyclesim.MachineNames(), ", "))
		return 2
	}
	feat, ok := recyclesim.LookupPreset(*features)
	if !ok {
		fmt.Fprintf(stderr, "recyclesim: unknown feature preset %q (known: %s)\n",
			*features, strings.Join(recyclesim.PresetNames(), ", "))
		return 2
	}
	switch *policy {
	case "stop":
		feat.AltPolicy = recyclesim.AltStop
	case "fetch":
		feat.AltPolicy = recyclesim.AltFetch
	case "nostop":
		feat.AltPolicy = recyclesim.AltNoStop
	default:
		fmt.Fprintf(stderr, "recyclesim: unknown alt policy %q (known: stop, fetch, nostop)\n", *policy)
		return 2
	}
	feat.AltLimit = *limit
	switch *watchdog {
	case "":
	case "off":
		feat.WatchdogCycles = recyclesim.WatchdogOff
	default:
		n, err := strconv.ParseUint(*watchdog, 0, 64)
		if err != nil || n == 0 {
			fmt.Fprintf(stderr, "recyclesim: bad -watchdog %q (want a positive cycle count or \"off\")\n", *watchdog)
			return 2
		}
		feat.WatchdogCycles = n
	}

	names := strings.Split(*workloads, ",")
	known := map[string]bool{}
	for _, n := range recyclesim.Workloads() {
		known[n] = true
	}
	for _, n := range names {
		if !known[n] {
			fmt.Fprintf(stderr, "recyclesim: unknown workload %q (known: %s)\n",
				n, strings.Join(recyclesim.Workloads(), ", "))
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	if *sampleMode {
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		res, err := recyclesim.RunSampledContext(ctx, recyclesim.Options{
			Machine:   mach,
			Features:  feat,
			Workloads: names,
			MaxInsts:  *insts,
			Sampling:  sampling,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "machine    %s\n", *machine)
		fmt.Fprintf(stdout, "features   %s (alt %s-%d)\n", recyclesim.FeatureName(feat), feat.AltPolicy, feat.AltLimit)
		fmt.Fprintf(stdout, "workloads  %s\n", strings.Join(names, ", "))
		if err := res.WriteText(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}

	wantMetrics := *metricsJSON != "" || *metricsText != ""
	var tel *recyclesim.Telemetry
	var ring *recyclesim.FlightRecorder
	if wantMetrics {
		tel = &recyclesim.Telemetry{Hists: true}
	}
	if *flightrec > 0 {
		ring = recyclesim.NewFlightRecorder(*flightrec)
	}

	var tracer *recyclesim.PipeTracer
	if *pipetraceOut != "" || *pipetraceKonata != "" {
		cfg := recyclesim.PipeTraceConfig{
			SampleEvery: *pipetraceSample,
			MaxRecords:  *pipetraceMax,
		}
		var err error
		if cfg.PCMin, cfg.PCMax, err = parseRange(*pipetracePC); err != nil {
			fmt.Fprintf(stderr, "recyclesim: bad -pipetrace-pc: %v\n", err)
			return 2
		}
		if cfg.CycleMin, cfg.CycleMax, err = parseRange(*pipetraceCycles); err != nil {
			fmt.Fprintf(stderr, "recyclesim: bad -pipetrace-cycles: %v\n", err)
			return 2
		}
		tracer = recyclesim.NewPipeTracer(cfg)
	}

	snapName := strings.Join(names, "+") + "/" + recyclesim.FeatureName(feat)
	var snapshotHook func(*recyclesim.Snapshot)
	var prog *sweep.Progress
	if *obsListen != "" {
		prog = &sweep.Progress{}
		prog.SetTotal(1)
		prog.StartCell(snapName)
		srv := server.New(prog)
		if err := srv.Start(*obsListen); err != nil {
			fmt.Fprintf(stderr, "recyclesim: -obs-listen: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "recyclesim: observability server on http://%s\n", srv.Addr())
		snapshotHook = func(sn *recyclesim.Snapshot) {
			sn.Name = snapName
			prog.SetInsts(sn.Stats.Committed)
			srv.Publish(sn)
		}
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := recyclesim.RunContext(ctx, recyclesim.Options{
		Machine:        mach,
		Features:       feat,
		Workloads:      names,
		MaxInsts:       *insts,
		Telemetry:      tel,
		FlightRecorder: ring,
		PipeTrace:      tracer,
		SnapshotHook:   snapshotHook,
		CrashDir:       *crashDir,
	})
	exit := 0
	if err != nil {
		exit = 1
		fmt.Fprintln(stderr, err)
		if res == nil {
			// Panic or configuration failure: no usable state to print.
			return 1
		}
		// Clean stop (cancel, deadline, livelock): the partial
		// statistics and telemetry below are internally consistent.
		switch {
		case errors.Is(err, recyclesim.ErrCanceled):
			fmt.Fprintln(stderr, "recyclesim: interrupted; partial statistics follow")
		case errors.Is(err, recyclesim.ErrDeadline):
			fmt.Fprintln(stderr, "recyclesim: -timeout expired; partial statistics follow")
		case errors.Is(err, recyclesim.ErrLivelock):
			fmt.Fprintln(stderr, "recyclesim: statistics up to the livelock follow")
		}
	}
	if prog != nil {
		prog.FinishCell(0)
	}

	write := func(path string, f func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return f(stdout)
		}
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(out); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	}

	if wantMetrics {
		snap := &recyclesim.Snapshot{
			Name:    snapName,
			Stats:   res,
			Metrics: tel,
			Ring:    ring,
		}
		if err := write(*metricsJSON, snap.WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := write(*metricsText, snap.WriteText); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if tracer != nil {
		chrome := func(w io.Writer) error { return tracer.WriteChrome(w, res.Cycles) }
		konata := func(w io.Writer) error { return tracer.WriteKonata(w, res.Cycles) }
		if err := write(*pipetraceOut, chrome); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := write(*pipetraceKonata, konata); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if dropped := tracer.TruncatedRecords(); dropped > 0 {
			fmt.Fprintf(stderr, "recyclesim: pipetrace truncated: %d instruction(s) past -pipetrace-max %d\n",
				dropped, *pipetraceMax)
		}
	}

	if err := writeHeapProfile(*memprofile); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *metricsJSON == "-" || *metricsText == "-" || *pipetraceOut == "-" || *pipetraceKonata == "-" {
		return exit // snapshot/trace owns stdout; keep it machine-readable
	}
	fmt.Fprintf(stdout, "machine    %s\n", *machine)
	fmt.Fprintf(stdout, "features   %s (alt %s-%d)\n", recyclesim.FeatureName(feat), feat.AltPolicy, feat.AltLimit)
	fmt.Fprintf(stdout, "workloads  %s\n", strings.Join(names, ", "))
	fmt.Fprintf(stdout, "cycles     %d\n", res.Cycles)
	fmt.Fprintf(stdout, "committed  %d\n", res.Committed)
	fmt.Fprintf(stdout, "IPC        %.3f\n", res.IPC())
	fmt.Fprintf(stdout, "mispredict %.2f%%  (coverage %.1f%%)\n", 100*res.MispredictRate(), res.BranchMissCoverage())
	fmt.Fprintf(stdout, "recycled   %.1f%% of renamed;  reused %.1f%%\n", res.PctRecycled(), res.PctReused())
	fmt.Fprintf(stdout, "forks      %d (respawns %d)  merges %d (%.1f%% backward)\n",
		res.Forks, res.Respawns, res.Merges, res.PctBackMerges())
	fmt.Fprintf(stdout, "renamed    %d  squashed %d  fetched %d\n", res.Renamed, res.Squashed, res.Fetched)
	fmt.Fprintf(stdout, "stalls     regs=%d al=%d iq=%d reclaims=%d\n",
		res.RenameStallRegs, res.RenameStallAL, res.IQFullStalls, res.Reclaims)
	fmt.Fprintf(stdout, "forkfail   noctx=%d reusepin=%d\n", res.ForkFailNoCtx, res.ForkFailReuse)
	for i, n := range res.PerProgram {
		fmt.Fprintf(stdout, "program %d  committed %d\n", i, n)
	}
	return exit
}
