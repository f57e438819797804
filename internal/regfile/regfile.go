// Package regfile implements the shared physical register file of the
// SMT/TME processor: values, ready bits, per-register reference counts,
// and separate integer and floating-point free lists.
//
// Reference counting is what makes the paper's instruction *reuse* safe
// in the simulator: reuse writes an inactive context's old physical
// mapping into the primary thread's map table, so the same physical
// register is then reachable from two places (the inactive active list
// and the primary's map/active-list).  A register returns to the free
// list only when every holder has released it, which prevents the
// double-free / premature-free hazards §3.5 of the paper works around
// with its "last reuse" bookkeeping.
package regfile

import (
	"fmt"
	"slices"
)

// PhysReg names one physical register.  NoReg marks "no mapping".
type PhysReg int32

// NoReg is the absent-mapping sentinel.
const NoReg PhysReg = -1

// File is the physical register file.  Integer registers occupy ids
// [0, NumInt); floating point ids [NumInt, NumInt+NumFP).
type File struct {
	NumInt, NumFP int

	vals  []uint64
	ready []bool
	refs  []int32

	freeInt []PhysReg
	freeFP  []PhysReg

	// AllocFailures counts Alloc calls that found an empty free list;
	// the core uses this to trigger inactive-context reclamation.
	AllocFailures uint64
}

// Reset sizes f for numInt integer and numFP floating-point registers
// and frees them all, clearing the values and AllocFailures, with the
// free lists in the same order whatever f held before.  It grows only
// the arrays that are too small and re-slices the rest.  It returns f.
func (f *File) Reset(numInt, numFP int) *File {
	n := numInt + numFP
	f.NumInt, f.NumFP = numInt, numFP
	f.vals = slices.Grow(f.vals[:0], n)[:n]
	f.ready = slices.Grow(f.ready[:0], n)[:n]
	f.refs = slices.Grow(f.refs[:0], n)[:n]
	clear(f.vals)
	clear(f.ready)
	clear(f.refs)
	f.freeInt, f.freeFP = slices.Grow(f.freeInt[:0], numInt), slices.Grow(f.freeFP[:0], numFP)
	for r := n - 1; r >= 0; r-- {
		if r >= numInt {
			f.freeFP = append(f.freeFP, PhysReg(r))
		} else {
			f.freeInt = append(f.freeInt, PhysReg(r))
		}
	}
	f.AllocFailures = 0
	return f
}

// IsFP reports which pool the register belongs to.
func (f *File) IsFP(r PhysReg) bool { return int(r) >= f.NumInt }

// FreeCount returns the number of free registers in the given pool.
func (f *File) FreeCount(fp bool) int {
	if fp {
		return len(f.freeFP)
	}
	return len(f.freeInt)
}

// Alloc takes a register from the requested pool with refcount 1 and
// not-ready status.  ok is false when the pool is empty (rename must
// stall or reclaim an inactive context).
func (f *File) Alloc(fp bool) (PhysReg, bool) {
	list := &f.freeInt
	if fp {
		list = &f.freeFP
	}
	if len(*list) == 0 {
		f.AllocFailures++
		return NoReg, false
	}
	r := (*list)[len(*list)-1]
	*list = (*list)[:len(*list)-1]
	f.refs[r] = 1
	f.ready[r] = false
	f.vals[r] = 0
	return r, true
}

// AddRef notes an additional holder of r (e.g. a reused mapping).
func (f *File) AddRef(r PhysReg) {
	if r == NoReg {
		return
	}
	if f.refs[r] <= 0 {
		panic(fmt.Sprintf("regfile: AddRef on free register p%d", r))
	}
	f.refs[r]++
}

// Release drops one reference; at zero the register returns to its
// free list.
func (f *File) Release(r PhysReg) {
	if r == NoReg {
		return
	}
	if f.refs[r] <= 0 {
		panic(fmt.Sprintf("regfile: Release on free register p%d", r))
	}
	f.refs[r]--
	if f.refs[r] == 0 {
		if f.IsFP(r) {
			f.freeFP = append(f.freeFP, r)
		} else {
			f.freeInt = append(f.freeInt, r)
		}
	}
}

// AddRefs adds one reference to every register in rs, skipping NoReg:
// a context duplicating another's whole map table (a fork) in one call
// instead of one AddRef per entry.  It panics on a free register, as
// AddRef does.
func (f *File) AddRefs(rs []PhysReg) {
	refs := f.refs
	for _, r := range rs {
		if r == NoReg {
			continue
		}
		if refs[r] <= 0 {
			panic(fmt.Sprintf("regfile: AddRef on free register p%d", r))
		}
		refs[r]++
	}
}

// ReleaseAll drops one reference from every register in rs, skipping
// NoReg, in slice order: registers reaching zero join their free list
// in that order, which decides every later Alloc, so the result is
// exactly that of one Release per entry.  It panics on a free register,
// as Release does.
func (f *File) ReleaseAll(rs []PhysReg) {
	refs := f.refs
	for _, r := range rs {
		if r == NoReg {
			continue
		}
		if refs[r] <= 0 {
			panic(fmt.Sprintf("regfile: Release on free register p%d", r))
		}
		if refs[r]--; refs[r] != 0 {
			continue
		}
		if f.IsFP(r) {
			f.freeFP = append(f.freeFP, r)
		} else {
			f.freeInt = append(f.freeInt, r)
		}
	}
}

// Refs returns the current reference count (tests, invariant checks).
func (f *File) Refs(r PhysReg) int { return int(f.refs[r]) }

// SetValue writes a produced value and marks the register ready.
func (f *File) SetValue(r PhysReg, v uint64) {
	f.vals[r] = v
	f.ready[r] = true
}

// Value reads the register's value (valid once Ready).
func (f *File) Value(r PhysReg) uint64 { return f.vals[r] }

// Ready reports whether the register's value has been produced.
func (f *File) Ready(r PhysReg) bool { return f.ready[r] }

// ReadyBits returns the ready bits indexed by register, read-only and
// live: the slice is the file's own, so it reflects every later
// SetValue and Alloc.  The issue stage scans it to skip queue entries
// still waiting on a register (iq.Queue.Issue).
func (f *File) ReadyBits() []bool { return f.ready }

// CheckConservation verifies that every register is either free or
// referenced, and none is both; tests call this after stress runs.
func (f *File) CheckConservation() error {
	onFree := make(map[PhysReg]bool, len(f.freeInt)+len(f.freeFP))
	for _, r := range f.freeInt {
		if onFree[r] {
			return fmt.Errorf("regfile: p%d on free list twice", r)
		}
		onFree[r] = true
	}
	for _, r := range f.freeFP {
		if onFree[r] {
			return fmt.Errorf("regfile: p%d on free list twice", r)
		}
		onFree[r] = true
	}
	for r := 0; r < f.NumInt+f.NumFP; r++ {
		pr := PhysReg(r)
		switch {
		case f.refs[r] < 0:
			return fmt.Errorf("regfile: p%d has negative refcount %d", r, f.refs[r])
		case f.refs[r] == 0 && !onFree[pr]:
			return fmt.Errorf("regfile: p%d has refcount 0 but is not free", r)
		case f.refs[r] > 0 && onFree[pr]:
			return fmt.Errorf("regfile: p%d has refcount %d but is on the free list", r, f.refs[r])
		}
	}
	return nil
}
