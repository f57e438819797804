// Core seeding: starting a detailed core from a mid-program
// architectural state instead of the program entry.  Sampled
// simulation (internal/sample) fast-forwards a program on the golden
// emulator, then loads a core with the state of each detailed
// measurement interval (Load with seeds and warm models); the seeded
// core's committed instruction stream must match the emulator
// continuing from the same state (seed_test.go holds the cosimulation
// invariant over every workload).
package core

import (
	"fmt"

	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// ArchState is a program's architectural state at a seeding point:
// the next PC to execute, the architectural register values, and the
// data memory image.
type ArchState struct {
	PC   uint64
	Regs [isa.NumRegs]uint64

	// Mem, when non-nil, is adopted as the program's data memory (not
	// copied — the caller hands over ownership).  Nil keeps the fresh
	// initial image.
	Mem *program.Memory
}

// Models are the long-lived microarchitectural models a core is built
// around: branch predictor, confidence estimator, and cache hierarchy.
// A nil field means the core uses its own default model for the
// machine: built on first use, reset in place by later loads.
// Non-nil models must be built with the same configurations Load uses —
// bpred.Default for the machine's context count, confidence.Default,
// and the machine's DefaultHierarchy — or the model diverges from the
// configured machine.  The core adopts them (no copy) and mutates them
// as it runs.
type Models struct {
	Pred *bpred.Predictor
	Conf *confidence.Estimator
	Mem  *cache.Hierarchy
}

// NewSeeded is New followed by Load on the core's own models.  It
// stays only for the benchmark's sampled replay (bench/sampled.go),
// with SeedMicroarch; every other caller takes New and Load.
func NewSeeded(mach config.Machine, feat config.Features, progs []*program.Program, seeds []*ArchState) (*Core, error) {
	c, err := New(mach)
	if err != nil {
		return nil, err
	}
	if err := c.Load(feat, progs, seeds, Models{}); err != nil {
		return nil, err
	}
	return c, nil
}

// runs reports whether progs are the programs c runs, in order; an
// unloaded core runs none.
func (c *Core) runs(progs []*program.Program) bool {
	if len(progs) == 0 || len(progs) != len(c.parts) {
		return false
	}
	for i, p := range progs {
		if c.parts[i].prog != p {
			return false
		}
	}
	return true
}

// checkSeeds validates seeds for progs: an empty list or one seed per
// program, each nil or starting inside its program's text with a zero
// zero-register.
func checkSeeds(seeds []*ArchState, progs []*program.Program) error {
	if len(seeds) != 0 && len(seeds) != len(progs) {
		return fmt.Errorf("core: %d seeds for %d programs", len(seeds), len(progs))
	}
	for i, s := range seeds {
		if s == nil {
			continue
		}
		p := progs[i]
		if _, ok := p.PCToIndex(s.PC); !ok {
			return fmt.Errorf("core: seed %d: pc 0x%x outside %s text", i, s.PC, p.Name)
		}
		if s.Regs[isa.RegZero] != 0 {
			return fmt.Errorf("core: seed %d: nonzero zero register", i)
		}
	}
	return nil
}

// SeedMicroarch replaces the core's branch predictor, confidence
// estimator, and/or cache hierarchy with externally warmed instances
// (nil arguments keep the current models).  The replacements follow
// the rules of Models.  It is the after-the-fact form of Load's models
// and stays only for the benchmark's sampled replay (bench/sampled.go).
// Seeding is only legal before the first cycle.
func (c *Core) SeedMicroarch(pred *bpred.Predictor, conf *confidence.Estimator, mem *cache.Hierarchy) {
	if c.cycle != 0 {
		panic("core: SeedMicroarch called after the first cycle")
	}
	if pred != nil {
		c.pred = pred
	}
	if conf != nil {
		c.conf = conf
	}
	if mem != nil {
		c.mem = mem
	}
}

// TagAddr disambiguates program address spaces in the shared caches
// and MDB.  The high bits make addresses unique per program; the low
// skew (a 64-byte-aligned odd multiple of the line size) spreads the
// programs' identical virtual layouts across cache sets and banks, as
// distinct physical page mappings would on the real machine.  Exported
// so the functional-warmup driver (internal/sample) trains the shared
// predictor, confidence estimator, and caches with exactly the
// addresses the core will present.
func TagAddr(progIdx int, addr uint64) uint64 {
	return addr + uint64(progIdx+1)<<44 + uint64(progIdx)*64*1245
}
