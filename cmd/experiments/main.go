// Command experiments regenerates every table and figure of the
// paper's evaluation section on the simulator:
//
//	experiments -fig 3     per-benchmark IPC, six architectures
//	experiments -fig 4     average IPC for 1/2/4 programs
//	experiments -table 1   recycling statistics
//	experiments -fig 5     recycling fetch limits (stop/fetch/nostop x 8/16/32)
//	experiments -fig 6     machine sweep (small/big x 1.8/2.8/2.16)
//	experiments -all       everything
//
// Exit status is 0 on success and 2 on bad flags or figure/table
// numbers the paper does not have.  The -sample-* and -confidence flags
// without -sampled, a schedule sampled mode would reject (one that
// does not fit its period, or an -insts budget smaller than one
// period), and -crash-dir when only the sampled sweep runs are bad
// flags.
//
// The independent simulation cells behind the figures run concurrently
// on a worker pool (-workers, default GOMAXPROCS); each cell is the
// same single-threaded deterministic run a serial loop would perform,
// results are assembled in input order, and duplicate cells shared
// between figures are computed once, so the output is byte-identical
// to the old serial harness.  Each cell is a fleet.Spec computed by
// fleet.Execute — the job service's cell type and executor — so
// -checkpoint DIR keeps results in the same store format and under the
// same keys as recycled -store DIR, and either can resume the other.
//
// Absolute IPC differs from the paper (synthetic workloads, not Alpha
// SPEC95 binaries); the comparisons between configurations are the
// reproduced result.  See EXPERIMENTS.md for the side-by-side reading.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/server"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

func main() {
	// SIGINT cancels the sweep cooperatively: in-flight cells stop at
	// their next poll, completed cells stay stored in -checkpoint,
	// and the harness flushes whatever finished before exiting nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return runCtx(context.Background(), args, stdout, stderr)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure number to regenerate (3, 4, 5, 6)")
	table := fs.Int("table", 0, "table number to regenerate (1)")
	all := fs.Bool("all", false, "regenerate everything")
	insts := fs.Uint64("insts", 300_000, "committed-instruction budget per run")
	workers := fs.Int("workers", 0, "simulations to run concurrently (0 = GOMAXPROCS)")
	sampled := fs.Bool("sampled", false, "also regenerate the per-benchmark IPC sweep in sampled mode, with confidence-interval columns")
	samplePeriod := fs.Uint64("sample-period", 0, "sampled mode: period P in instructions (0 = default 20000)")
	sampleInterval := fs.Uint64("sample-interval", 0, "sampled mode: measured instructions per interval L (0 = default 1000)")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "sampled mode: detached-warmup length W per interval (0 = default 1000)")
	confidence := fs.Float64("confidence", 0, "sampled mode: Student-t confidence level for the IPC interval (0.90/0.95/0.99; 0 = default 0.95)")
	metrics := fs.String("metrics", "", "write an aggregate JSON telemetry snapshot over all cells to this file (\"-\" for stdout)")
	progress := fs.Bool("progress", false, "print a single-line in-place progress meter to stderr")
	obsListen := fs.String("obs-listen", "", "serve /metrics, /progress, /healthz and pprof on this address during the sweep (e.g. \":0\")")
	keepGoing := fs.Bool("keep-going", false, "keep computing remaining cells after a cell fails (failed cells print as zeros; exit stays nonzero)")
	checkpointDir := fs.String("checkpoint", "", "store completed cells in this result-store directory (the format recycled -store uses) and resume from it, skipping cells it already holds")
	remote := fs.String("remote", "", "run the sweep on a recycled job server at this base URL instead of simulating locally (failed cells print as zeros, like -keep-going)")
	remoteToken := fs.String("remote-token", "", "bearer token for the job server (required when recycled runs with -token)")
	traceOut := fs.String("trace-out", "", "save the remote job's request trace (Chrome trace_event JSON, for Perfetto) to this file (requires -remote)")
	crashDir := fs.String("crash-dir", "", "persist a crash bundle here for any detailed cell that panics or livelocks")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *fig {
	case 0, 3, 4, 5, 6:
	default:
		fmt.Fprintf(stderr, "experiments: no figure %d in the paper (have 3, 4, 5, 6)\n", *fig)
		return 2
	}
	switch *table {
	case 0, 1:
	default:
		fmt.Fprintf(stderr, "experiments: no table %d in the paper (have 1)\n", *table)
		return 2
	}
	if !*all && *fig == 0 && *table == 0 && !*sampled {
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "experiments: -workers %d is negative (0 = GOMAXPROCS)\n", *workers)
		return 2
	}
	if *remote != "" && *checkpointDir != "" {
		fmt.Fprintln(stderr, "experiments: -remote and -checkpoint are mutually exclusive (the server's durable store already keeps every cell)")
		return 2
	}
	if *remote != "" && *crashDir != "" {
		fmt.Fprintln(stderr, "experiments: -remote and -crash-dir are mutually exclusive (cells run on the server, so crash bundles would land there)")
		return 2
	}
	if *crashDir != "" && !*all && *fig == 0 && *table == 0 {
		fmt.Fprintln(stderr, "experiments: -crash-dir would be ignored: only the sampled sweep runs, and sampled cells write no crash bundle")
		return 2
	}
	if *traceOut != "" && *remote == "" {
		fmt.Fprintln(stderr, "experiments: -trace-out requires -remote (only service sweeps are traced)")
		return 2
	}
	if *remoteToken != "" && *remote == "" {
		fmt.Fprintln(stderr, "experiments: -remote-token requires -remote")
		return 2
	}
	sampling := &sample.Config{
		Period:      *samplePeriod,
		IntervalLen: *sampleInterval,
		WarmupLen:   *sampleWarmup,
		Confidence:  *confidence,
	}
	if *sampled {
		if err := sampling.Validate(cmp.Or(*insts, recyclesim.DefaultMaxInsts)); err != nil {
			fmt.Fprintf(stderr, "experiments: bad sampling schedule: %v\n", err)
			return 2
		}
	} else {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "sample-") || f.Name == "confidence" {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(stderr, "experiments: -sampled is not set, so %s would be ignored\n", strings.Join(stray, ", "))
			return 2
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	sections := []struct {
		want  bool
		print func(w io.Writer, r *runner)
	}{
		{*all || *fig == 3, func(w io.Writer, r *runner) { figure3(w, r, *insts) }},
		{*all || *fig == 4, func(w io.Writer, r *runner) { figure4(w, r, *insts) }},
		{*all || *table == 1, func(w io.Writer, r *runner) { table1(w, r, *insts) }},
		{*all || *fig == 5, func(w io.Writer, r *runner) { figure5(w, r, *insts) }},
		{*all || *fig == 6, func(w io.Writer, r *runner) { figure6(w, r, *insts) }},
		// Sampled sweeps are opt-in even under -all: the detailed figures
		// are the paper's evaluation; the sampled sweep is the estimator's
		// own report.
		{*sampled, func(w io.Writer, r *runner) { figure3Sampled(w, r, *insts) }},
	}

	// Pass 1: dry-run the print functions against io.Discard to collect
	// the distinct simulation cells they need.
	r := newRunner()
	r.keepGoing = *keepGoing
	r.crashDir = *crashDir
	r.sampling = sampling
	for _, s := range sections {
		if s.want {
			s.print(io.Discard, r)
		}
	}
	if *checkpointDir != "" {
		if fi, err := os.Stat(*checkpointDir); err == nil && !fi.IsDir() {
			fmt.Fprintf(stderr, "experiments: -checkpoint: %s is a file, not a store directory (JSONL journals are no longer read)\n", *checkpointDir)
			return 2
		}
		st, err := store.Open(*checkpointDir)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: -checkpoint: %v\n", err)
			return 2
		}
		r.store = st
	}

	// Live observation (all writes go to stderr or the HTTP listener,
	// so stdout stays byte-identical with or without it).
	if *progress || *obsListen != "" {
		r.prog = &sweep.Progress{}
	}
	if *obsListen != "" {
		srv := server.New(r.prog)
		if err := srv.Start(*obsListen); err != nil {
			fmt.Fprintf(stderr, "experiments: -obs-listen: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "experiments: observability server on http://%s\n", srv.Addr())
		agg := &sweep.Aggregate{Name: "experiments running aggregate"}
		r.publish = func(s *stats.Sim, m *obs.Metrics) { srv.Publish(agg.Add(s, m)) }
	}

	// Pass 2: compute every cell once — on the local worker pool, or on
	// a recycled job server when -remote is set.
	var remoteErr error
	compute := func() { r.computeAll(ctx, *workers) }
	if *remote != "" {
		compute = func() { remoteErr = computeRemote(ctx, r, *remote, *remoteToken, *traceOut, stderr) }
	}
	if *progress {
		runWithMeter(stderr, r, compute)
	} else {
		compute()
	}
	if remoteErr != nil {
		fmt.Fprintf(stderr, "experiments: -remote: %v\n", remoteErr)
		return 2
	}

	// Pass 3: re-run the print functions for real, replaying memoized
	// results, so the output is exactly what the serial harness printed.
	for _, s := range sections {
		if s.want {
			s.print(stdout, r)
		}
	}

	if *metrics != "" {
		if err := writeMetrics(*metrics, stdout, r); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
	}

	// Fault summary goes to stderr so stdout stays byte-identical to a
	// clean sweep (failed cells printed as zeros above).
	exit := 0
	if failed := r.failedCells(); len(failed) > 0 {
		exit = 1
		fmt.Fprintf(stderr, "experiments: %d of %d cell(s) failed:\n", len(failed), len(r.specs))
		for _, line := range failed {
			fmt.Fprintf(stderr, "  %s\n", line)
		}
	}
	if r.store != nil {
		fmt.Fprintf(stderr, "experiments: -checkpoint %s: %d cell(s) restored, %d computed\n",
			*checkpointDir, r.nRestored.Load(), r.nComputed.Load())
		if n := r.store.Counters().PutErrors; n > 0 {
			exit = 1
			fmt.Fprintf(stderr, "experiments: -checkpoint: %d computed cell(s) could not be saved; a rerun computes them again\n", n)
		}
	}
	if ctx.Err() != nil {
		exit = 1
		fmt.Fprintln(stderr, "experiments: interrupted; results above cover completed cells only")
		if r.store != nil {
			fmt.Fprintln(stderr, "experiments: completed cells are stored; rerun with the same -checkpoint to resume")
		}
	}
	return exit
}

// runner memoizes simulation cells across a collect pass and a replay
// pass.  In collect mode cell() records the cell's spec and returns a
// zero result (the caller is printing to io.Discard); after computeAll
// or computeRemote, cell() replays the memoized record.
type runner struct {
	collect   bool
	keepGoing bool
	crashDir  string
	// sampling is the schedule every sampled cell of this run carries.
	sampling *sample.Config
	// store, when non-nil (-checkpoint), caches every local cell under
	// its Spec.Key, the key a recycled daemon's store uses.
	store *store.Store

	seen  map[string]int // Spec.Key -> index into specs
	specs []fleet.Spec
	recs  []*store.Record
	errs  []error

	// nComputed/nRestored split the completed cells for the meter's
	// final accounting line: simulated here versus served from the
	// -checkpoint store (local) or the server's store (remote).
	nComputed atomic.Int64
	nRestored atomic.Int64

	// prog, when non-nil, receives per-cell progress from the workers
	// (feeding both the -progress meter and the /progress endpoint).
	prog *sweep.Progress
	// publish, when non-nil, is called by each worker with its finished
	// detailed cell (feeding the /metrics endpoint).  Must be safe for
	// concurrent use.
	publish func(*stats.Sim, *obs.Metrics)
}

func newRunner() *runner {
	return &runner{collect: true, seen: make(map[string]int)}
}

// zeroRecord is what a collected-but-not-computed or failed cell
// prints: zeros in every column, detailed or sampled.
func zeroRecord() *store.Record {
	return &store.Record{Stats: &stats.Sim{}, Metrics: &obs.Metrics{}, Sampled: &recyclesim.SampledResult{}}
}

func (r *runner) cell(mach config.Machine, feat config.Features, names []string, insts uint64, sampled bool) *store.Record {
	spec := fleet.Spec{Machine: mach, Features: feat, Workloads: names, Insts: insts}
	if sampled {
		spec.Sampling = r.sampling
	}
	key, err := spec.Key()
	if err != nil {
		panic(fmt.Sprintf("experiments: cell %s: %v", spec.Name(), err)) // figures name built-in workloads only
	}
	i, ok := r.seen[key]
	if r.collect {
		if !ok {
			r.seen[key] = len(r.specs)
			r.specs = append(r.specs, spec)
		}
		return zeroRecord()
	}
	if !ok {
		panic(fmt.Sprintf("experiments: cell %s not collected", spec.Name()))
	}
	return r.recs[i]
}

func (r *runner) sim(mach config.Machine, feat config.Features, names []string, insts uint64) *stats.Sim {
	return r.cell(mach, feat, names, insts, false).Stats
}

func (r *runner) simSampled(mach config.Machine, feat config.Features, names []string, insts uint64) *recyclesim.SampledResult {
	return r.cell(mach, feat, names, insts, true).Sampled
}

// begin sizes the result slots and the progress total for one compute
// pass.
func (r *runner) begin() {
	r.recs = make([]*store.Record, len(r.specs))
	r.errs = make([]error, len(r.specs))
	if r.prog != nil {
		r.prog.SetTotal(len(r.specs))
	}
}

// computeAll executes every collected cell across the worker pool with
// per-cell fault containment: a failed cell records its error and a
// zero result (so the replay pass still prints), and unless keepGoing
// is set the first failure cancels the cells still queued or running.
// With -checkpoint, cells already in the store are restored instead of
// simulated, and fresh results are stored as they land.
func (r *runner) computeAll(ctx context.Context, workers int) {
	r.begin()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sweep.Run(len(r.specs), workers, func(i int) {
		if r.prog != nil {
			r.prog.StartCell(r.specs[i].Name())
		}
		rec, cached, err := r.local(ctx, r.specs[i])
		if err != nil && !r.keepGoing {
			cancel()
		}
		r.finish(i, rec, cached, err)
	})
	r.collect = false
}

// local computes one cell with the fleet's executor, through the
// -checkpoint store when one is open.
func (r *runner) local(ctx context.Context, spec fleet.Spec) (*store.Record, bool, error) {
	compute := func(trace.Ctx) (*store.Record, error) { return fleet.ExecuteWithCrashDir(ctx, spec, r.crashDir) }
	if r.store == nil {
		rec, err := compute(trace.Ctx{})
		return rec, false, err
	}
	key, err := spec.Key()
	if err != nil {
		return nil, false, err
	}
	return r.store.GetOrCompute(key, trace.Ctx{}, compute)
}

// finish lands cell i's outcome in its slot: the one per-cell path of
// local and remote sweeps.  It feeds the progress meter, the /metrics
// aggregate, and the computed/restored accounting; a failed cell keeps
// its error and prints as zeros.
func (r *runner) finish(i int, rec *store.Record, cached bool, err error) {
	sampled := r.specs[i].Sampling != nil
	if err == nil && (sampled && rec.Sampled == nil || !sampled && (rec.Stats == nil || rec.Metrics == nil)) {
		err = errors.New("result record lacks the cell's payload")
	}
	switch {
	case err != nil:
		r.errs[i] = err
		rec = zeroRecord()
	case cached:
		r.nRestored.Add(1)
	default:
		r.nComputed.Add(1)
	}
	r.recs[i] = rec
	if r.prog != nil {
		if sampled {
			r.prog.FinishCell(rec.Sampled.MeasuredInsts)
		} else {
			r.prog.FinishCell(rec.Stats.Committed)
		}
	}
	if r.publish != nil && err == nil && !sampled {
		r.publish(rec.Stats, rec.Metrics)
	}
}

// failedCells renders one line per failed cell for the stderr summary.
func (r *runner) failedCells() []string {
	var out []string
	for i, err := range r.errs {
		if err != nil {
			out = append(out, fmt.Sprintf("cell %s: %v", r.specs[i].Name(), firstLine(err.Error())))
		}
	}
	return out
}

// firstLine truncates multi-line error text (livelock dumps and the
// like) for the one-line-per-cell summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " [...]"
	}
	return s
}

// runWithMeter wraps one compute pass (local or remote) with a stderr
// progress meter redrawn in place a few times a second and finished
// with a newline.
func runWithMeter(stderr io.Writer, r *runner, compute func()) {
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				done, total, _, cur := r.prog.Snapshot()
				fmt.Fprintf(stderr, "\r%-100s", formatProgress(done, total, cur, time.Since(start)))
			}
		}
	}()
	compute()
	close(stop)
	wg.Wait()
	done, total, _, _ := r.prog.Snapshot()
	fmt.Fprintf(stderr, "\r%-100s\n", formatProgressDone(done, total, time.Since(start),
		r.nComputed.Load(), r.nRestored.Load()))
}

// formatProgress renders one progress-meter line: cells done/total with
// percentage, elapsed wall time, and an ETA extrapolated from the mean
// cell rate so far ("?" until the first cell lands).
func formatProgress(done, total int64, current string, elapsed time.Duration) string {
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	eta := "?"
	switch {
	case total > 0 && done >= total:
		eta = "0s"
	case done > 0:
		rem := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
		eta = rem.Round(time.Second).String()
	}
	s := fmt.Sprintf("cells %d/%d (%.0f%%)  elapsed %s  eta %s",
		done, total, pct, elapsed.Round(time.Second), eta)
	if current != "" {
		s += "  " + current
	}
	return s
}

// formatProgressDone renders the meter's final line: the completed
// state (100% when nothing failed or was interrupted), total cells and
// elapsed time, and the computes/hits split — instead of leaving
// whatever the last 200ms sample happened to show.
func formatProgressDone(done, total int64, elapsed time.Duration, computes, hits int64) string {
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	state := "done"
	if done < total {
		state = "stopped"
	}
	return fmt.Sprintf("cells %d/%d (%.0f%%)  elapsed %s  computes %d  hits %d  %s",
		done, total, pct, elapsed.Round(time.Second), computes, hits, state)
}

// writeMetrics exports one aggregate snapshot over every detailed cell:
// summed counters, summed stall attribution, merged histograms.  Cells
// are visited in collection order, so the document is deterministic.
func writeMetrics(path string, stdout io.Writer, r *runner) error {
	agg := &stats.Sim{}
	tel := &obs.Metrics{Hists: true}
	n := 0
	for i, spec := range r.specs {
		if spec.Sampling == nil {
			agg.Add(r.recs[i].Stats)
			tel.Add(r.recs[i].Metrics)
			n++
		}
	}
	snap := &obs.Snapshot{
		Name:    fmt.Sprintf("experiments aggregate (%d cells)", n),
		Stats:   agg,
		Metrics: tel,
	}
	if path == "-" {
		return snap.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// figure3 regenerates Figure 3: per-benchmark IPC for the six
// architectures, one program on the baseline big.2.16 machine.
func figure3(w io.Writer, r *runner, insts uint64) {
	fmt.Fprintln(w, "Figure 3: per-benchmark IPC, 1 program, big.2.16")
	fmt.Fprintf(w, "%-10s", "program")
	for _, p := range config.PresetNames() {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for _, bench := range workload.Names {
		fmt.Fprintf(w, "%-10s", bench)
		for _, p := range config.PresetNames() {
			s := r.sim(config.Big216(), recyclesim.PresetByName(p), []string{bench}, insts)
			fmt.Fprintf(w, " %9.3f", s.IPC())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// sampledPresets are the architectures the sampled sweep reports: the
// acceptance set the estimator's accuracy is validated against.
var sampledPresets = []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"}

// figure3Sampled regenerates the Figure 3 sweep in sampled mode:
// per-benchmark estimated IPC with its Student-t confidence interval,
// one program on the baseline big.2.16 machine.
func figure3Sampled(w io.Writer, r *runner, insts uint64) {
	s := r.sampling.WithDefaults()
	fmt.Fprintf(w, "Figure 3 (sampled): per-benchmark IPC with %.0f%% CI, 1 program, big.2.16\n",
		100*s.Confidence)
	fmt.Fprintf(w, "schedule: period=%d interval=%d warmup=%d\n", s.Period, s.IntervalLen, s.WarmupLen)
	fmt.Fprintf(w, "%-10s", "program")
	for _, p := range sampledPresets {
		fmt.Fprintf(w, " %22s", p)
	}
	fmt.Fprintln(w)
	for _, bench := range workload.Names {
		fmt.Fprintf(w, "%-10s", bench)
		for _, p := range sampledPresets {
			res := r.simSampled(config.Big216(), recyclesim.PresetByName(p), []string{bench}, insts)
			fmt.Fprintf(w, " %7.3f [%5.3f,%5.3f]", res.IPC, res.IPCLo, res.IPCHi)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// avgIPC averages IPC over the eight permutation mixes of n programs
// (n=1 averages the eight benchmarks, as the paper does).
func avgIPC(r *runner, mach config.Machine, feat config.Features, n int, insts uint64) float64 {
	mixes := workload.Mixes(n)
	total := 0.0
	for _, mix := range mixes {
		total += r.sim(mach, feat, mix, insts).IPC()
	}
	return total / float64(len(mixes))
}

// figure4 regenerates Figure 4: average IPC for 1, 2 and 4 programs
// across the six architectures.
func figure4(w io.Writer, r *runner, insts uint64) {
	fmt.Fprintln(w, "Figure 4: average IPC, 1/2/4 programs, big.2.16")
	fmt.Fprintf(w, "%-10s", "programs")
	for _, p := range config.PresetNames() {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	for _, n := range []int{1, 2, 4} {
		fmt.Fprintf(w, "%-10d", n)
		for _, p := range config.PresetNames() {
			fmt.Fprintf(w, " %9.3f", avgIPC(r, config.Big216(), recyclesim.PresetByName(p), n, insts))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// table1 regenerates Table 1: recycling statistics under REC/RS/RU.
func table1(w io.Writer, r *runner, insts uint64) {
	fmt.Fprintln(w, "Table 1: recycling statistics (REC/RS/RU, big.2.16)")
	fmt.Fprintln(w, stats.Table1Header())
	feat := recyclesim.PresetByName("REC/RS/RU")
	for _, bench := range workload.Names {
		s := r.sim(config.Big216(), feat, []string{bench}, insts)
		fmt.Fprintln(w, s.Table1Row(bench))
	}
	for _, n := range []int{1, 2, 4} {
		agg := &stats.Sim{}
		for _, mix := range workload.Mixes(n) {
			agg.Add(r.sim(config.Big216(), feat, mix, insts))
		}
		fmt.Fprintln(w, agg.Table1Row(fmt.Sprintf("%d prog avg", n)))
	}
	fmt.Fprintln(w)
}

// figure5 regenerates Figure 5: the §5.2 alternate-path fetch policies.
func figure5(w io.Writer, r *runner, insts uint64) {
	fmt.Fprintln(w, "Figure 5: recycling fetch limits (REC/RS/RU, big.2.16), average IPC")
	fmt.Fprintf(w, "%-10s", "programs")
	type pol struct {
		p config.AltPolicy
		n int
	}
	var pols []pol
	for _, p := range []config.AltPolicy{config.AltNoStop, config.AltStop, config.AltFetch} {
		for _, n := range []int{8, 16, 32} {
			pols = append(pols, pol{p, n})
		}
	}
	for _, pl := range pols {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("%s-%d", pl.p, pl.n))
	}
	fmt.Fprintln(w)
	for _, n := range []int{1, 2, 4} {
		fmt.Fprintf(w, "%-10d", n)
		for _, pl := range pols {
			feat := recyclesim.PresetByName("REC/RS/RU")
			feat.AltPolicy = pl.p
			feat.AltLimit = pl.n
			fmt.Fprintf(w, " %10.3f", avgIPC(r, config.Big216(), feat, n, insts))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// figure6 regenerates Figure 6: SMT vs TME vs REC/RS/RU across the
// four machine design points.
func figure6(w io.Writer, r *runner, insts uint64) {
	fmt.Fprintln(w, "Figure 6: machine sweep, average IPC")
	machines := []config.Machine{
		config.Small18(), config.Small28(), config.Big18(), config.Big216(),
	}
	fmt.Fprintf(w, "%-10s", "programs")
	for _, m := range machines {
		for _, p := range []string{"SMT", "TME", "REC/RS/RU"} {
			fmt.Fprintf(w, " %16s", m.Name+"/"+p)
		}
	}
	fmt.Fprintln(w)
	for _, n := range []int{1, 2, 4} {
		fmt.Fprintf(w, "%-10d", n)
		for _, m := range machines {
			for _, p := range []string{"SMT", "TME", "REC/RS/RU"} {
				fmt.Fprintf(w, " %16.3f", avgIPC(r, m, recyclesim.PresetByName(p), n, insts))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
