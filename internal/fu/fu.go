// Package fu models the functional units: a pool of integer units (a
// subset of which execute loads and stores) and a pool of
// floating-point units.  The paper's baseline has 12 integer units, 8
// of them load/store capable, and 6 floating-point units.  All units
// are pipelined except dividers, which occupy their unit for the full
// operation latency.
package fu

import (
	"slices"

	"recyclesim/internal/isa"
)

// Config sizes the pools.
type Config struct {
	IntUnits int // integer units (ALU, multiply, divide, branch)
	LSUnits  int // how many of the integer units can do loads/stores
	FPUnits  int // floating-point units
}

// Pool tracks per-cycle issue bandwidth and divider occupancy.
type Pool struct {
	cfg Config

	// Per-cycle issue counters, reset by BeginCycle.
	cycle   uint64
	intUsed int
	lsUsed  int
	fpUsed  int

	// Non-pipelined dividers hold a unit busy until the given cycle.
	intDivBusy []uint64
	fpDivBusy  []uint64
}

// Reset sizes p for cfg and idles every unit, growing the divider
// arrays only when they are too small.  It returns p.
func (p *Pool) Reset(cfg Config) *Pool {
	p.cfg = cfg
	p.BeginCycle(0)
	p.intDivBusy = slices.Grow(p.intDivBusy[:0], cfg.IntUnits)[:cfg.IntUnits]
	p.fpDivBusy = slices.Grow(p.fpDivBusy[:0], cfg.FPUnits)[:cfg.FPUnits]
	clear(p.intDivBusy)
	clear(p.fpDivBusy)
	return p
}

// Config returns the pool's configuration.
func (p *Pool) Config() Config { return p.cfg }

// BeginCycle resets the per-cycle issue accounting.
func (p *Pool) BeginCycle(cycle uint64) {
	p.cycle = cycle
	p.intUsed, p.lsUsed, p.fpUsed = 0, 0, 0
}

func (p *Pool) reserveDiv(busy []uint64, until uint64) bool {
	for i := range busy {
		if busy[i] <= p.cycle {
			busy[i] = until
			return true
		}
	}
	return false
}

// TryIssue attempts to claim a unit for an instruction of the given
// class this cycle; latency is the instruction's execution latency
// (used to hold a divider).  It reports whether issue succeeded.
func (p *Pool) TryIssue(class isa.Class, latency int) bool {
	switch class {
	case isa.ClassNop:
		return true
	case isa.ClassLoad, isa.ClassStore:
		if p.intUsed >= p.cfg.IntUnits || p.lsUsed >= p.cfg.LSUnits {
			return false
		}
		p.intUsed++
		p.lsUsed++
		return true
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassBranch:
		if p.intUsed >= p.cfg.IntUnits {
			return false
		}
		p.intUsed++
		return true
	case isa.ClassIntDiv:
		if p.intUsed >= p.cfg.IntUnits {
			return false
		}
		if !p.reserveDiv(p.intDivBusy, p.cycle+uint64(latency)) {
			return false
		}
		p.intUsed++
		return true
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPCvt:
		if p.fpUsed >= p.cfg.FPUnits {
			return false
		}
		p.fpUsed++
		return true
	case isa.ClassFPDiv:
		if p.fpUsed >= p.cfg.FPUnits {
			return false
		}
		if !p.reserveDiv(p.fpDivBusy, p.cycle+uint64(latency)) {
			return false
		}
		p.fpUsed++
		return true
	}
	return false
}
