// Package recycle implements the bookkeeping structures §3 of the paper
// introduces for instruction recycling and reuse: the written bit-array
// that detects changed register operands, the Memory Disambiguation
// Buffer (MDB) that qualifies load-value reuse, and the per-context
// merge points that trigger recycling.
package recycle

import "recyclesim/internal/isa"

// WrittenBits is the paper's "written bit-array of contexts indexed by
// logical registers" (§3.5).  bit[reg][ctx] set means the primary has
// created a new instance of reg since ctx's path started, so recycled
// instructions from ctx that read reg cannot be reused.
type WrittenBits struct {
	contexts int
	bits     [isa.NumRegs]uint16 // one row per logical register; bit c = context c
}

// Reset sizes w for the given number of hardware contexts (at most 16
// with this row representation) and clears every bit.  It returns w.
func (w *WrittenBits) Reset(contexts int) *WrittenBits {
	if contexts > 16 {
		panic("recycle: written bit-array supports at most 16 contexts")
	}
	*w = WrittenBits{contexts: contexts}
	return w
}

// ResetContext clears the column for ctx: "when a new path is started
// on a context, the column of register bits for that context is reset."
func (w *WrittenBits) ResetContext(ctx int) {
	mask := ^(uint16(1) << uint(ctx))
	for r := range w.bits {
		w.bits[r] &= mask
	}
}

// MarkWritten records that a partition's primary created a new register
// instance: "the row of context bits for that register is set."  mask
// selects the columns of the partition's contexts — logical registers
// of unrelated programs sharing the machine never interact.
func (w *WrittenBits) MarkWritten(reg isa.Reg, mask uint16) {
	w.bits[reg] |= mask
}

// ClearFor clears the bit for one (reg, ctx) pair.  Used when a reused
// instruction re-installs exactly the mapping ctx's trace recorded, so
// from that trace's point of view the register is unchanged and chained
// reuse stays possible.
func (w *WrittenBits) ClearFor(reg isa.Reg, ctx int) {
	w.bits[reg] &^= 1 << uint(ctx)
}

// MarkWrittenExcept sets the row for the masked contexts except skip
// (the reuse case: other contexts' traces saw a different mapping
// identity, but the source trace's own mapping is re-installed intact).
func (w *WrittenBits) MarkWrittenExcept(reg isa.Reg, mask uint16, skip int) {
	w.bits[reg] |= mask &^ (1 << uint(skip))
}

// SetAll conservatively marks every register changed for the masked
// contexts.  The core uses it on TME promotion: the new primary's
// earlier (alternate-path) writes predate its primaryhood and were
// never recorded, so every existing trace in the partition must be
// treated as operand-stale.
func (w *WrittenBits) SetAll(mask uint16) {
	for r := range w.bits {
		w.bits[r] |= mask
	}
}

// Changed reports whether reg has been re-instanced by the primary
// since ctx's path started.
func (w *WrittenBits) Changed(reg isa.Reg, ctx int) bool {
	if reg == isa.RegZero {
		return false
	}
	return w.bits[reg]&(1<<uint(ctx)) != 0
}
