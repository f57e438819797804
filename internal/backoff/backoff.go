// Package backoff is the retry-delay policy of the internal/fleet
// dispatcher and worker, the one per-cell retry path (every job-server
// compute goes through it): capped exponential growth with equal
// jitter, built so tests stay reproducible — the jitter source is an
// explicit injectable function (a fixed-seed SplitMix64 by default,
// never the global math/rand), and the sleep itself is injectable and
// context-aware.
//
// Only host-side fleet code imports it, so it sits on the lint opt-out
// list (lint.NonSimPackages) with the fleet; its delays are still pure
// arithmetic over the attempt number, with no wall-clock reads.
package backoff

import (
	"context"
	"time"
)

// Delay returns the delay before retry attempt (0-based): base
// doubled per attempt and capped at max, with "equal jitter" — the
// final delay is uniformly drawn from [d/2, d) by rnd, so concurrent
// retriers spread out instead of stampeding in lockstep.
//
// base <= 0 disables backoff (returns 0, the immediate-retry
// behavior the retry paths had before this package existed).
// max <= 0 defaults to 64*base.  rnd, when non-nil, must return
// uniform values in [0, 1); nil rnd skips jitter and returns the full
// deterministic delay.
func Delay(base, max time.Duration, attempt int, rnd func() float64) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = 64 * base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if rnd == nil {
		return d
	}
	half := d / 2
	return half + time.Duration(rnd()*float64(d-half))
}

// Sleep waits for d or until ctx is done, whichever comes first,
// returning ctx.Err() on early wakeup.  d <= 0 returns immediately
// (after a ctx check, so a canceled context is always honored).
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Rand returns a deterministic uniform-[0,1) source seeded by seed: a
// SplitMix64 generator, self-contained so no retry path ever touches
// the global math/rand state.  The returned function is NOT safe for
// concurrent use; give each retrier its own.
func Rand(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// 53 high bits → uniform in [0, 1).
		return float64(z>>11) / float64(1<<53)
	}
}
