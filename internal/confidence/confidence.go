// Package confidence implements a branch confidence estimator in the
// style of Jacobsen, Rotenberg and Smith ("Assigning confidence to
// conditional branch predictions", MICRO-29), which the TME
// architecture uses to select which branches to fork: "Candidate
// branches are selected based on branch confidence prediction methods."
//
// The estimator is a table of resetting miss-distance counters indexed
// by branch address.  A correct prediction increments the saturating
// counter; a misprediction resets it to zero.  A branch is *high
// confidence* once its counter reaches the threshold, so the forking
// budget concentrates on branches that miss recently and repeatedly —
// programs with high prediction accuracy fork almost nothing, which is
// what keeps TME from degrading them (§2).
//
// The table is deliberately indexed by PC alone (not PC XOR history):
// history-indexed confidence spreads each static branch across many
// independently-cold entries, which never warm up and make every branch
// look low-confidence forever.
package confidence

import (
	"fmt"
	"slices"

	"recyclesim/internal/isa"
)

// Config sizes the estimator.
type Config struct {
	Entries   int // table entries (power of two)
	Max       int // counter saturation value
	Threshold int // counter >= Threshold means high confidence
}

// Default returns a 1K-entry estimator with a 4-bit resetting counter
// and threshold 4: a branch is fork-worthy for its first few dynamic
// instances after any misprediction.
func Default() Config { return Config{Entries: 1024, Max: 15, Threshold: 4} }

// Estimator is the confidence table, shared across contexts.
type Estimator struct {
	cfg  Config
	ctr  []uint8
	mask uint64 // Entries-1: the table index masks instead of dividing
}

// CopyFrom overwrites e with a deep copy of src, reusing e's counter
// table when it is large enough.
func (e *Estimator) CopyFrom(src *Estimator) {
	ctr := e.ctr
	*e = *src
	e.ctr = append(ctr[:0], src.ctr...)
}

// Reset sizes e for cfg and zeroes every counter (low confidence, so
// cold branches are fork candidates until they prove predictable),
// keeping the table when it is large enough.  It returns e.  It panics
// when Entries is not a power of two: configurations are static, and a
// bad one is a programming error.
func (e *Estimator) Reset(cfg Config) *Estimator {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("confidence: table entries (%d) must be a power of two", cfg.Entries))
	}
	*e = Estimator{cfg: cfg, ctr: slices.Grow(e.ctr[:0], cfg.Entries)[:cfg.Entries], mask: uint64(cfg.Entries - 1)}
	clear(e.ctr)
	return e
}

func (e *Estimator) index(pc uint64) int {
	return int((pc / isa.InstBytes) & e.mask)
}

// HighConfidence reports whether the branch at pc is currently
// considered well predicted.  TME forks when this is false and a spare
// context is available.
func (e *Estimator) HighConfidence(pc uint64) bool {
	return int(e.ctr[e.index(pc)]) >= e.cfg.Threshold
}

// Update trains the counter with a resolved branch outcome.
func (e *Estimator) Update(pc uint64, predictedCorrectly bool) {
	i := e.index(pc)
	if predictedCorrectly {
		if int(e.ctr[i]) < e.cfg.Max {
			e.ctr[i]++
		}
	} else {
		e.ctr[i] = 0
	}
}

// Counter exposes the raw counter value for tests and introspection.
func (e *Estimator) Counter(pc uint64) int { return int(e.ctr[e.index(pc)]) }
