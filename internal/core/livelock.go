package core

import (
	"fmt"

	"recyclesim/internal/obs"
)

const (
	// defaultWatchdogCycles is the forward-progress window used when
	// Features.WatchdogCycles is zero.  The longest legitimate commit
	// gap in the modelled machine is a few hundred cycles (a divide
	// behind a full miss chain to memory with bank skew); 50k cycles is
	// two orders of magnitude above that, so the watchdog cannot
	// misfire on a healthy run yet still cuts a livelocked one short
	// long before the MaxCPI backstop.
	defaultWatchdogCycles = 50_000

	// pollEvery is the cancellation-poll cadence in simulated cycles.
	// Coarse on purpose: one closure call per 4096 cycles is invisible
	// next to the cycle loop's work, and cancellation latency of a few
	// thousand simulated cycles is milliseconds of wall time.
	pollEvery = 4096
)

// MaxCPI is the one cycle budget of every run: a detailed run of n
// committed instructions stops after MaxCPI*n cycles, and a sampled
// interval of W+L instructions after MaxCPI*(W+L) plus a fixed slack.
// It is a backstop far above any kernel's CPI, so a healthy run never
// reaches it; the watchdog stops a livelocked one much sooner.
const MaxCPI = 40

// LivelockError reports a forward-progress watchdog fire: the machine
// cycled for a full window without committing a single instruction
// while at least one program was still live.  It carries a structured
// diagnosis — the dominant rename-slot stall cause over the run so far
// and a cycle-stamped machine dump (including the flight-recorder tail
// when a ring is attached) — so the hang is debuggable from the error
// alone.
type LivelockError struct {
	// Cycle is the cycle the watchdog fired.
	Cycle uint64
	// Window is how many consecutive cycles passed without a commit.
	Window uint64
	// Committed is the total committed before progress stopped.
	Committed uint64
	// Dominant is the stall cause charged the most rename slot-cycles
	// over the run so far (the attribution of internal/obs).
	Dominant obs.Cause
	// Dump is the per-context machine state at the fire, in the same
	// format as the invariant checker's panic dump, with the flight
	// recorder's retained events appended when one is attached.
	Dump string
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("core: livelock: no instruction committed for %d cycles (at cycle %d, %d committed, dominant stall cause %s)\n%s",
		e.Window, e.Cycle, e.Committed, e.Dominant, e.Dump)
}

// livelockError builds the watchdog's diagnosis from the live machine.
func (c *Core) livelockError(window uint64) *LivelockError {
	return &LivelockError{
		Cycle:     c.cycle,
		Window:    window,
		Committed: c.Stats.Committed,
		Dominant:  c.dominantStall(),
		Dump:      c.dumpState(),
	}
}

// dominantStall returns the non-busy cause with the most rename
// slot-cycles charged over the run so far (ties resolve to the lowest
// cause index, deterministically).
func (c *Core) dominantStall() obs.Cause {
	best := obs.CauseNone
	var bestN uint64
	for cause := obs.CauseICacheMiss; cause < obs.NumCauses; cause++ {
		if n := c.Obs.SlotCycles[cause]; n > bestN {
			best, bestN = cause, n
		}
	}
	return best
}
