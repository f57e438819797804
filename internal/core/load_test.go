package core

import (
	"reflect"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// midProgramSeeds returns a seed per program, each a few thousand
// instructions into its program on the emulator; every call builds
// new, equal memories.
func midProgramSeeds(progs []*program.Program) []*ArchState {
	seeds := make([]*ArchState, len(progs))
	for i, p := range progs {
		e := emu.New(p)
		e.Run(uint64(2_000 + 700*i))
		seeds[i] = &ArchState{PC: e.PC, Regs: e.Regs, Mem: e.Mem}
	}
	return seeds
}

// newLoaded is Load on an idle core from every program's entry on the
// core's own models: a core in the state a detailed run starts from.
func newLoaded(mach config.Machine, feat config.Features, progs []*program.Program) (*Core, error) {
	return loadedWith(mach, feat, progs, nil, Models{})
}

// loadedWith is Load on an idle core with the given seeds and models.
func loadedWith(mach config.Machine, feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) (*Core, error) {
	c := &Core{}
	if err := c.Load(mach, feat, progs, seeds, m); err != nil {
		return nil, err
	}
	return c, nil
}

// reshapeMachine is a machine off the paper's grid whose every sized
// buffer differs from small.2.8's: fewer contexts, a smaller active
// list, queues, unit counts and register pool, and caches a quarter of
// the baseline's.
func reshapeMachine() config.Machine {
	m := config.Small28()
	m.Name = "reshape.4"
	m.Contexts, m.ActiveList, m.ExtraRegs = 4, 16, 40
	m.IQInt, m.IQFP, m.IntUnits, m.LSUnits, m.FPUnits = 16, 8, 3, 2, 1
	m.CacheScale = 4
	return m
}

// TestResetMatchesNew: a core that ran one cell and is loaded with
// another — other features, another number of programs, from program
// entry or mid-program, on the same machine or after a larger or a
// smaller one — runs exactly as a new core loaded with that cell, with
// the reuse tables present only when the new features ask for reuse.
// Sampled mode moves a pooled seed core to the next run's program and
// preset this way, and a detailed run takes an idle core of any
// machine.  Reset loads from program entry, Reseed mid-program.
func TestResetMatchesNew(t *testing.T) {
	mixes := [][]string{{"gcc"}, {"compress", "li"}, {"go", "perl", "vortex", "tomcatv"}}
	presets := []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"}
	mach := config.Small28()
	froms := []config.Machine{mach, config.Big216(), reshapeMachine()}
	for _, how := range []string{"Reset", "Reseed"} {
		t.Run(how, func(t *testing.T) {
			for i, from := range []string{"REC/RS/RU", "SMT"} {
				for j, to := range presets {
					fromMach := froms[(i+j)%len(froms)]
					testLoadMatchesNew(t, fromMach, mach, from, to, mixes[(i+j)%len(mixes)], mixes[(i+j+1)%len(mixes)], how == "Reseed")
				}
			}
		})
	}
}

// testLoadMatchesNew runs fromMix under the from preset on fromMach,
// loads the core with toMix under the to preset on mach, and checks it
// against a new core loaded the same way.
func testLoadMatchesNew(t *testing.T, fromMach, mach config.Machine, from, to string, fromMix, toMix []string, midProgram bool) {
	t.Helper()
	ff, _ := config.PresetByName(from)
	tf, _ := config.PresetByName(to)
	fromProgs, err := workload.MixPrograms(fromMix)
	if err != nil {
		t.Fatal(err)
	}
	toProgs, err := workload.MixPrograms(toMix)
	if err != nil {
		t.Fatal(err)
	}
	seeds := func() []*ArchState { return nil }
	name := fromMach.Name + " " + from + " -> " + to + " from entry"
	if midProgram {
		seeds = func() []*ArchState { return midProgramSeeds(toProgs) }
		name = fromMach.Name + " " + from + " -> " + to + " mid-program"
	}
	used, err := newLoaded(fromMach, ff, fromProgs)
	if err != nil {
		t.Fatal(err)
	}
	used.CommitHook = func(CommitInfo) {}
	used.SetRing(obs.NewRing(64))
	used.Obs.Hists = true
	if _, err := used.Run(3_000, 40*3_000); err != nil {
		t.Fatal(err)
	}
	if err := used.Load(mach, tf, toProgs, seeds(), Models{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := loadedWith(mach, tf, toProgs, seeds(), Models{})
	if err != nil {
		t.Fatal(err)
	}
	if used.CommitHook != nil || used.ring != nil || used.cycle != 0 {
		t.Fatalf("%s: Load kept a hook, a recorder or the cycle count", name)
	}
	if has := used.written != nil || used.mdb != nil; has != tf.Reuse {
		t.Errorf("%s: Reuse=%v but reuse tables present=%v", name, tf.Reuse, has)
	}
	for _, part := range []struct {
		name        string
		used, fresh any
	}{
		{"written bits", used.written, fresh.written},
		{"MDB", used.mdb, fresh.mdb},
		{"register file", used.rf, fresh.rf},
		{"primary mask", used.primary, fresh.primary},
		{"functional units", used.fus, fresh.fus},
		{"predictor", used.pred, fresh.pred},
		{"confidence", used.conf, fresh.conf},
		{"features", used.feat, fresh.feat},
		{"watchdog", used.watchdogCycles, fresh.watchdogCycles},
		{"invariant period", used.invariantEvery, fresh.invariantEvery},
		{"Stats", used.Stats, fresh.Stats},
	} {
		if !reflect.DeepEqual(part.used, part.fresh) {
			t.Errorf("%s: the loaded core's %s differ from a fresh core's", name, part.name)
		}
	}
	if len(used.parts) != len(fresh.parts) {
		t.Fatalf("%s: %d partitions, want %d", name, len(used.parts), len(fresh.parts))
	}
	for k, p := range used.parts {
		q := fresh.parts[k]
		if p.id != q.id || p.prog != q.prog || p.mask != q.mask ||
			len(p.mem.Delta(q.mem, nil)) != 0 || len(q.mem.Delta(p.mem, nil)) != 0 {
			t.Errorf("%s: partition %d differs from a fresh core's", name, k)
		}
	}
	for _, c := range []*Core{fresh, used} {
		c.Obs.Hists = true
		if _, err := c.Run(3_000, 40*3_000); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(used.Stats, fresh.Stats) {
		t.Errorf("%s: Stats differ:\nloaded %+v\nfresh  %+v", name, used.Stats, fresh.Stats)
	}
	if !reflect.DeepEqual(used.Obs, fresh.Obs) {
		t.Errorf("%s: Obs differ", name)
	}
}

// TestResetLeavesAdoptedStateAlone: Load resets in place only what the
// core built itself.  Models and seed memories a Load adopted belong
// to its caller (sampled mode reuses them for later intervals), so a
// later Load without them must leave them as the run left them.
func TestResetLeavesAdoptedStateAlone(t *testing.T) {
	p, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	progs := []*program.Program{p}
	e := emu.New(p)
	e.Run(5_000)
	var m Models
	m.Reset(mach)
	seed := &ArchState{PC: e.PC, Regs: e.Regs, Mem: e.Mem}
	c, err := loadedWith(mach, config.RECRSRU, progs, []*ArchState{seed}, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3_000, 40*3_000); err != nil {
		t.Fatal(err)
	}
	var models Models
	models.CopyFrom(m)
	mem := &program.Memory{}
	mem.CopyFrom(seed.Mem)
	unchanged := func(when string) {
		t.Helper()
		if c.pred == m.Pred || c.conf == m.Conf || c.mem == m.Mem || c.parts[0].mem == seed.Mem {
			t.Errorf("%s: the core still runs on an adopted model or seed memory", when)
		}
		if !reflect.DeepEqual(m, models) {
			t.Errorf("%s: an adopted model changed", when)
		}
		if len(seed.Mem.Delta(mem, nil)) != 0 || len(mem.Delta(seed.Mem, nil)) != 0 {
			t.Errorf("%s: the adopted seed memory changed", when)
		}
	}
	if err := c.Load(mach, config.RECRSRU, progs, nil, Models{}); err != nil {
		t.Fatal(err)
	}
	unchanged("Load on the same features")
	if _, err := c.Run(3_000, 40*3_000); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(mach, config.SMT, progs, nil, Models{}); err != nil {
		t.Fatal(err)
	}
	unchanged("Load on other features")
}
