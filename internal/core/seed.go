// Core seeding: starting a detailed core from a mid-program
// architectural state instead of the program entry.  Sampled
// simulation (internal/sample) fast-forwards a program on the golden
// emulator, then builds a seeded core for each detailed measurement
// interval; the seeded core's committed instruction stream must match
// the emulator continuing from the same state (seed_test.go holds the
// cosimulation invariant over every workload).
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
// machine: built on first use, reset in place by later resets.
// Non-nil models must be built with the same configurations New uses —
// bpred.Default for the machine's context count, confidence.Default,
// and the machine's DefaultHierarchy — or the model diverges from the
// configured machine.  The core adopts them (no copy) and mutates them
// as it runs.
type Models struct {
	Pred *bpred.Predictor
	Conf *confidence.Estimator
	Mem  *cache.Hierarchy
}

// NewSeeded is New with per-program architectural seeds: seeds[i], when
// non-nil, starts progs[i]'s primary context at the given mid-program
// PC with the given register values and memory image instead of the
// program entry.  A nil seeds slice or nil entry means a fresh start.
// Microarchitectural state (predictor, caches, recycle tables) starts
// cold; NewSeededWith starts the core on pre-warmed models instead.
func NewSeeded(mach config.Machine, feat config.Features, progs []*program.Program, seeds []*ArchState) (*Core, error) {
	return NewSeededWith(mach, feat, progs, seeds, Models{})
}

// NewSeededWith is NewSeeded on pre-warmed models: the core adopts the
// non-nil fields of m at construction, so no cold model is built only
// to be replaced.  Sampled simulation seeds every measurement interval
// this way, building each seed slot's core once and calling Reseed for
// its later intervals and runs.  The recycle tables (written bits, MDB,
// active-list traces) still start cold.
func NewSeededWith(mach config.Machine, feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) (*Core, error) {
	if err := checkSeeds(seeds, progs); err != nil {
		return nil, err
	}
	return newCore(mach, feat, progs, seeds, m)
}

// Reseed puts c into exactly the state NewSeededWith builds for c's
// machine and the given features, programs, seeds and models, and
// validates them the same way.  It reuses c's buffers (active lists,
// store queues, register file, queues, completion wheel, recycle
// tables, and the models and memories c built for itself), so a core
// reseeded per sampled interval allocates only what nil models and nil
// seed memories ask for the first time.  Features and programs equal to
// the ones c runs were validated when c took them and are not walked
// again, so reseeding the same program for its next interval costs no
// more than the reset itself.  The cycle count, Stats, Obs, the commit
// hook, the poll hook and any attached recorders start over; Stats and
// Obs are cleared in place, so values read from them earlier must be
// copied first.  On error c is unchanged.
func (c *Core) Reseed(feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) error {
	if feat != c.feat || !c.runs(progs) {
		if err := checkRun(c.mach, feat, progs); err != nil {
			return err
		}
	}
	if err := checkSeeds(seeds, progs); err != nil {
		return err
	}
	c.reset(feat, progs, seeds, m)
	return nil
}

// runs reports whether progs are the programs c runs, in order.
func (c *Core) runs(progs []*program.Program) bool {
	if len(progs) != len(c.parts) {
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
// the rules of Models.  It is the after-the-fact form of
// NewSeededWith, which avoids building the cold models this discards.
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
