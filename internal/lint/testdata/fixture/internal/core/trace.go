package core

import (
	"fixture/internal/obs"
	"fixture/internal/obs/pipetrace"
)

// Core carries the optional telemetry hooks the traceguard analyzer
// watches: a flight-recorder ring and a per-instruction pipeline
// tracer.  Both are nil when telemetry is off, so every call must sit
// inside the matching nil check.
type Core struct {
	ring   *obs.Ring
	ptrace *pipetrace.Recorder
	cycle  uint64
}

// GuardedSites holds the negative space: calls correctly dominated by
// their nil checks, including a guard conjoined with another condition
// and a guard spelled nil-first.
func (c *Core) GuardedSites(n int) {
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle})
	}
	if c.ring != nil && n > 0 {
		c.ring.Record(obs.Event{Cycle: c.cycle, Arg: uint64(n)})
	}
	if nil != c.ring {
		c.ring.Record(obs.Event{Cycle: c.cycle})
	}
	r := obs.NewRing(16)
	if r != nil {
		r.Record(obs.Event{Cycle: c.cycle})
	}
	if c.ptrace != nil {
		c.ptrace.OnCommit(1, c.cycle)
	}
	if c.ptrace != nil && n > 0 {
		_ = c.ptrace.OnRename(c.cycle)
	}
}

// UnguardedSites holds the findings: bare calls, a call guarded by the
// wrong hook, a guard that is only one side of ||, and a call in an
// else branch of the right check.
func (c *Core) UnguardedSites(n int) {
	c.ring.Record(obs.Event{Cycle: c.cycle}) // want:traceguard
	if c.ptrace != nil {                     // wrong guard for the ring
		c.ring.Record(obs.Event{Cycle: c.cycle}) // want:traceguard
	}
	if c.ring != nil || n > 0 {
		c.ring.Record(obs.Event{Cycle: c.cycle}) // want:traceguard
	}
	if c.ring != nil {
		_ = n
	} else {
		c.ring.Record(obs.Event{Cycle: c.cycle}) // want:traceguard
	}
	_ = c.ptrace.OnRename(c.cycle) // want:traceguard
	if c.ring != nil {             // wrong guard for the pipe tracer
		c.ptrace.OnCommit(1, c.cycle) // want:traceguard
	}
}
