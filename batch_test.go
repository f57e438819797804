package recyclesim

import (
	"context"
	"fmt"
	"testing"

	"recyclesim/internal/sweep"
)

// batchOptions builds a mixed bag of configurations exercising every
// feature preset, so the worker pool is compared against the serial
// path on more than one machine shape.
func batchOptions(hooks []func(CommitInfo)) []Options {
	var opts []Options
	cases := []struct {
		mach   string
		preset string
		loads  []string
	}{
		{"big.2.16", "SMT", []string{"compress"}},
		{"big.2.16", "TME", []string{"li"}},
		{"big.2.16", "REC", []string{"go"}},
		{"big.2.16", "REC/RU", []string{"compress", "tomcatv"}},
		{"big.1.8", "REC/RS", []string{"gcc"}},
		{"small.2.8", "REC/RS/RU", []string{"perl", "vortex"}},
	}
	for i, c := range cases {
		o := Options{
			Machine:   MachineByName(c.mach),
			Features:  PresetByName(c.preset),
			Workloads: c.loads,
			MaxInsts:  30_000,
		}
		if hooks != nil {
			o.CommitHook = hooks[i]
		}
		opts = append(opts, o)
	}
	return opts
}

// commitRecorder captures a run's commit stream as one big string, the
// strictest practical witness that two runs executed identically.
func commitRecorder(sink *[]string) func(CommitInfo) {
	return func(ci CommitInfo) {
		*sink = append(*sink, fmt.Sprintf("%d %d %x %v %x %x %v %v",
			ci.Program, ci.Ctx, ci.PC, ci.Inst, ci.Result, ci.Addr, ci.Taken, ci.Reused))
	}
}

// runPool runs each option through RunContext on a sweep.Run worker
// pool — the path every sweep cell takes — and returns results and
// errors by input index.  ctxs[i], when present and non-nil, is
// option i's context.
func runPool(opts []Options, ctxs []context.Context, workers int) ([]*Result, []error) {
	results := make([]*Result, len(opts))
	errs := make([]error, len(opts))
	sweep.Run(len(opts), workers, func(i int) {
		ctx := context.Background()
		if ctxs != nil && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		results[i], errs[i] = RunContext(ctx, opts[i])
	})
	return results, errs
}

// TestRunBatchMatchesSerial is the parallelism-boundary witness: a
// batch run concurrently on a worker pool must produce byte-identical
// statistics AND commit streams to a serial loop over Run.  Running
// this test under -race (make check does) also checks the pool for
// data races.
func TestRunBatchMatchesSerial(t *testing.T) {
	n := len(batchOptions(nil))

	serialStreams := make([][]string, n)
	serialHooks := make([]func(CommitInfo), n)
	for i := range serialHooks {
		serialHooks[i] = commitRecorder(&serialStreams[i])
	}
	serialOpts := batchOptions(serialHooks)
	serial := make([]*Result, n)
	for i, o := range serialOpts {
		res, err := Run(o)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = res
	}

	batchStreams := make([][]string, n)
	batchHooks := make([]func(CommitInfo), n)
	for i := range batchHooks {
		batchHooks[i] = commitRecorder(&batchStreams[i])
	}
	batch, errs := runPool(batchOptions(batchHooks), nil, 4)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}

	for i := range serial {
		if got, want := fmt.Sprintf("%+v", batch[i]), fmt.Sprintf("%+v", serial[i]); got != want {
			t.Errorf("run %d: batch stats differ from serial\n got: %s\nwant: %s", i, got, want)
		}
		if len(batchStreams[i]) != len(serialStreams[i]) {
			t.Errorf("run %d: commit stream length %d (batch) vs %d (serial)",
				i, len(batchStreams[i]), len(serialStreams[i]))
			continue
		}
		for j := range serialStreams[i] {
			if batchStreams[i][j] != serialStreams[i][j] {
				t.Errorf("run %d: commit %d differs\n batch: %s\nserial: %s",
					i, j, batchStreams[i][j], serialStreams[i][j])
				break
			}
		}
	}
}
