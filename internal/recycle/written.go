// Package recycle implements the bookkeeping structures §3 of the paper
// introduces for instruction recycling and reuse: the written bit-array
// that detects changed register operands, the Memory Disambiguation
// Buffer (MDB) that qualifies load-value reuse, and the per-context
// merge points that trigger recycling.
package recycle

import (
	"math/bits"

	"recyclesim/internal/isa"
)

// WrittenBits is the paper's "written bit-array of contexts indexed by
// logical registers" (§3.5).  bit[reg][ctx] set means the primary has
// created a new instance of reg since ctx's path started, so recycled
// instructions from ctx that read reg cannot be reused.
//
// A register's row is 16 bits, one per context, and rowsPerWord rows
// share a 64-bit word: row reg is bits 16*(reg%4) on of word reg/4.
// Column and whole-array operations then take one word operation per
// four rows.
type WrittenBits struct {
	contexts int
	words    [isa.NumRegs / rowsPerWord]uint64
}

const rowsPerWord = 4

// lanes repeats a 16-bit row pattern in every row of a word.
func lanes(mask uint16) uint64 { return uint64(mask) * 0x0001_0001_0001_0001 }

// row returns the word holding reg's row and the row's bit offset in it.
func row(reg isa.Reg) (word int, shift uint) {
	return int(reg) / rowsPerWord, uint(reg) % rowsPerWord * 16
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
	keep := ^lanes(1 << uint(ctx))
	for i := range w.words {
		w.words[i] &= keep
	}
}

// MarkWritten records that a partition's primary created a new register
// instance: "the row of context bits for that register is set."  mask
// selects the columns of the partition's contexts — logical registers
// of unrelated programs sharing the machine never interact.
func (w *WrittenBits) MarkWritten(reg isa.Reg, mask uint16) {
	i, sh := row(reg)
	w.words[i] |= uint64(mask) << sh
}

// MarkRegs sets ctx's bit in the row of every register in regs (bit r
// for logical register r): a squash's marks, one call for the whole
// squashed range.
func (w *WrittenBits) MarkRegs(regs uint64, ctx int) {
	for ; regs != 0; regs &= regs - 1 {
		w.MarkWritten(isa.Reg(bits.TrailingZeros64(regs)), 1<<uint(ctx))
	}
}

// ClearFor clears the bit for one (reg, ctx) pair.  Used when a reused
// instruction re-installs exactly the mapping ctx's trace recorded, so
// from that trace's point of view the register is unchanged and chained
// reuse stays possible.
func (w *WrittenBits) ClearFor(reg isa.Reg, ctx int) {
	i, sh := row(reg)
	w.words[i] &^= 1 << (sh + uint(ctx))
}

// MarkWrittenExcept sets the row for the masked contexts except skip
// (the reuse case: other contexts' traces saw a different mapping
// identity, but the source trace's own mapping is re-installed intact).
func (w *WrittenBits) MarkWrittenExcept(reg isa.Reg, mask uint16, skip int) {
	w.MarkWritten(reg, mask&^(1<<uint(skip)))
}

// SetAll conservatively marks every register changed for the masked
// contexts.  The core uses it on TME promotion: the new primary's
// earlier (alternate-path) writes predate its primaryhood and were
// never recorded, so every existing trace in the partition must be
// treated as operand-stale.
func (w *WrittenBits) SetAll(mask uint16) {
	set := lanes(mask)
	for i := range w.words {
		w.words[i] |= set
	}
}

// Changed reports whether reg has been re-instanced by the primary
// since ctx's path started.
func (w *WrittenBits) Changed(reg isa.Reg, ctx int) bool {
	if reg == isa.RegZero {
		return false
	}
	i, sh := row(reg)
	return w.words[i]>>(sh+uint(ctx))&1 != 0
}
