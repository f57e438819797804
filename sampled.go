package recyclesim

import (
	"context"
	"fmt"

	"recyclesim/internal/sample"
)

// Sampling configures SMARTS-style sampled simulation: the golden
// emulator fast-forwards between short detailed measurement intervals
// while continuously warming the branch predictor, confidence
// estimator, and caches, and whole-program IPC is estimated from the
// per-interval samples with a Student-t confidence interval.
//
// The schedule is systematic and seedless — with period P, interval
// length L, and detached warmup W, interval k measures the last L
// instructions of [k*P, (k+1)*P) — so sampled runs are byte-identically
// deterministic across repetitions and worker counts.  See sample.Config
// for the fields and their defaults.  RunSampledContext sets Poll to its
// context's Err when the context can be cancelled.
type Sampling = sample.Config

// SampledResult is a sampled run's estimate: per-interval CPI samples,
// the mean IPC with its confidence interval, coverage accounting, and
// the summed measured-region statistics (so recycling decompositions
// still work on sampled runs).
type SampledResult = sample.Result

// SampledInterval is one detailed measurement interval's result.
type SampledInterval = sample.Interval

// RunSampled executes one sampled simulation and returns the IPC
// estimate.  It honours Options.Machine, Features, Workloads/Programs
// and MaxInsts; sampled mode simulates exactly one program
// (interval seeding restores a single architectural state).  The
// Options.Sampling field supplies the schedule; a nil Sampling uses
// the defaults.
func RunSampled(o Options) (*SampledResult, error) {
	return RunSampledContext(context.Background(), o)
}

// RunSampledContext is RunSampled with cooperative cancellation: the
// checkpoint pass polls ctx between periods and each detailed interval
// polls on the core's cycle-counted cadence.  An uncancelled sampled
// run is byte-identical with or without a context attached.
func RunSampledContext(ctx context.Context, o Options) (*SampledResult, error) {
	progs, err := prepare(&o)
	if err != nil {
		return nil, err
	}
	if len(progs) != 1 {
		return nil, fmt.Errorf("recyclesim: sampled mode simulates one program, got %d", len(progs))
	}
	var cfg sample.Config
	if o.Sampling != nil {
		cfg = *o.Sampling
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Poll = ctx.Err
	}
	return sample.Run(o.Machine, o.Features, progs[0], o.MaxInsts, cfg)
}
