package core

import (
	"math/bits"

	"recyclesim/internal/obs"
)

// attributeSlots closes one cycle's rename slot-cycle accounting:
// every one of the machine's RenameWidth rename slots is charged to
// exactly one obs.Cause, so Σ SlotCycles == Cycles × RenameWidth holds
// at the end of every cycle (checkTelemetry enforces it).
//
// The attribution rules, in priority order:
//
//   - slots that renamed a fetched instruction → CauseBusyFetch;
//   - slots that renamed a recycle-stream instruction → CauseRecycle;
//   - remaining slots, when rename hit a structural hazard this cycle
//     → the first hazard recorded (free list, active list, IQ);
//   - remaining slots, when a fetchable thread is waiting out an
//     instruction-cache fill → CauseICacheMiss;
//   - otherwise → CauseIdle (front-end latency, drained programs,
//     empty fetch queues).
//
// The per-cycle inputs (slotFetched, slotRecycled, slotStall) are
// recorded by rename and reset here.  When Obs.Hists is set, the
// active-list occupancy histogram also samples here, once per cycle.
func (c *Core) attributeSlots() {
	m := c.Obs
	m.SlotCycles[obs.CauseBusyFetch] += uint64(c.slotFetched)
	m.SlotCycles[obs.CauseRecycle] += uint64(c.slotRecycled)
	if unused := c.mach.RenameWidth - c.slotFetched - c.slotRecycled; unused > 0 {
		cause := c.slotStall
		if cause == obs.CauseNone {
			if c.fetchBlockedOnICache() {
				cause = obs.CauseICacheMiss
			} else {
				cause = obs.CauseIdle
			}
		}
		m.SlotCycles[cause] += uint64(unused)
	}
	c.slotFetched, c.slotRecycled, c.slotStall = 0, 0, obs.CauseNone

	if m.Hists {
		var occ uint64
		for _, t := range c.ctxs {
			occ += uint64(t.al.InFlight())
		}
		m.ALOcc.Observe(occ)
	}
}

// noteStall records a rename structural stall: the cycle's slot
// attribution keeps the first cause hit (first-set-wins matches the
// in-order rename stage, where the first blocked instruction blocks
// everything behind it), and the flight recorder gets a stall event.
func (c *Core) noteStall(t *Context, cause obs.Cause, pc uint64) {
	if c.slotStall == obs.CauseNone {
		c.slotStall = cause
	}
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Stage: obs.StageStall,
			Ctx: int16(t.id), Cause: cause, PC: pc})
	}
}

// fetchBlockedOnICache reports whether any context that would otherwise
// be fetching is waiting out an instruction-cache fill this cycle (the
// I-cache-miss attribution predicate).
func (c *Core) fetchBlockedOnICache() bool {
	for m := c.inState[CtxActive] | c.inState[CtxDraining]; m != 0; m &= m - 1 {
		if t := c.ctxs[bits.TrailingZeros16(m)]; t.fetchStallUntil > c.cycle && t.fetchable() {
			return true
		}
	}
	return false
}
