package core

import (
	"fmt"
	"reflect"
	"testing"

	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/pipetrace"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// seededCosim fast-forwards a program ffInsts instructions on the
// golden emulator, seeds a detailed core from the resulting
// architectural state, and checks that the seeded core's commit stream
// exactly continues the emulator's execution.
func seededCosim(t *testing.T, mach config.Machine, feat config.Features, p *program.Program, ffInsts, maxInsts uint64) {
	t.Helper()
	e := emu.New(p)
	e.Run(ffInsts)
	if e.Halted {
		t.Fatalf("%s halted during fast-forward", p.Name)
	}
	// The reference emulator clones the memory because the core adopts
	// the fast-forwarded image.
	ref := &emu.Emulator{Prog: p, Mem: e.Mem.Clone(), PC: e.PC, Regs: e.Regs, Retired: e.Retired}
	seed := &ArchState{PC: e.PC, Regs: e.Regs, Mem: e.Mem}
	c, err := loadedWith(mach, feat, []*program.Program{p}, []*ArchState{seed}, Models{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	c.CommitHook = cosimHook(t, ref, fmt.Sprintf("%s/%s seeded@%d", p.Name, config.FeatureName(feat), ffInsts))
	if _, err := c.Run(maxInsts, 40*maxInsts+10_000); err != nil {
		t.Fatalf("%s/%s seeded@%d: %v", p.Name, config.FeatureName(feat), ffInsts, err)
	}
	if c.Stats.Committed == 0 {
		t.Fatalf("%s/%s seeded@%d: nothing committed", p.Name, config.FeatureName(feat), ffInsts)
	}
}

// cosimHook returns a commit hook that steps ref once per commit and
// reports the first few commits that differ from it, each named by
// label and the commit's position.
func cosimHook(t *testing.T, ref *emu.Emulator, label string) func(CommitInfo) {
	t.Helper()
	mismatches := 0
	return func(ci CommitInfo) {
		got := ref.Step()
		if mismatches > 3 {
			return
		}
		fail := func(field string, want, have interface{}) {
			mismatches++
			t.Errorf("%s commit #%d pc=0x%x inst=%v: %s mismatch: emulator %v, core %v",
				label, ref.Retired, ci.PC, ci.Inst, field, want, have)
		}
		switch {
		case got.PC != ci.PC:
			fail("pc", got.PC, ci.PC)
		case got.Inst != ci.Inst:
			fail("inst", got.Inst, ci.Inst)
		case ci.Inst.WritesReg() && got.Result != ci.Result:
			fail("result", got.Result, ci.Result)
		case ci.Inst.IsMem() && got.Addr != ci.Addr:
			fail("addr", got.Addr, ci.Addr)
		case ci.Inst.IsBranch() && got.Taken != ci.Taken:
			fail("taken", got.Taken, ci.Taken)
		}
	}
}

// The master seeded-correctness invariant: a core seeded from any
// mid-program point commits exactly what the emulator executes from
// that point, for every workload, with the full feature set and plain
// SMT.
func TestSeededCosim(t *testing.T) {
	for _, bench := range workload.Names {
		for _, preset := range []string{"SMT", "REC/RS/RU"} {
			bench, preset := bench, preset
			t.Run(bench+"/"+preset, func(t *testing.T) {
				feat, _ := config.PresetByName(preset)
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				seededCosim(t, config.Big216(), feat, p, 25_000, 8_000)
			})
		}
	}
}

// A nil-seed NewSeeded must behave exactly like New and Load.
func TestNewSeededNilSeedsMatchesNew(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	run := func(build func() (*Core, error)) *Core {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(5_000, 40*5_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := run(func() (*Core, error) { return newLoaded(config.Big216(), config.RECRSRU, []*program.Program{p}) })
	b := run(func() (*Core, error) {
		return NewSeeded(config.Big216(), config.RECRSRU, []*program.Program{p}, nil)
	})
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Committed != b.Stats.Committed ||
		a.Stats.Recycled != b.Stats.Recycled || a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// Load refuses bad seeds and runs, on a core that has run and on a new
// one, and leaves a refused core as it was: the used core keeps its
// cycle count, and the new core stays unloaded and commits nothing.
func TestNewSeededValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*program.Program{p}
	bad := &ArchState{PC: p.Entry}
	bad.Regs[isa.RegZero] = 1
	used, err := newLoaded(config.Big216(), config.SMT, progs)
	if err != nil {
		t.Fatal(err)
	}
	used.Cycle()
	fresh, err := New(config.Big216())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Core{"used": used, "new": fresh} {
		for _, seeds := range [][]*ArchState{{nil, nil}, {{PC: 0x3}}, {bad}} {
			if err := c.Load(config.SMT, progs, seeds, Models{}); err == nil {
				t.Errorf("%s core: Load accepted %+v", name, seeds)
			}
		}
		if err := c.Load(config.Features{Recycle: true}, progs, nil, Models{}); err == nil {
			t.Errorf("%s core: Load accepted Recycle without TME", name)
		}
		if err := c.Load(config.SMT, nil, nil, Models{}); err == nil {
			t.Errorf("%s core: Load accepted no programs", name)
		}
	}
	if used.CycleCount() != 1 {
		t.Error("a refused Load reset the used core")
	}
	if st, err := fresh.Run(1_000, 40*1_000); err != nil || st.Committed != 0 || fresh.CycleCount() != 0 {
		t.Errorf("a refused Load started the new core: %d commits in %d cycles, err %v",
			st.Committed, fresh.CycleCount(), err)
	}
}

// Seeding fresh default microarchitectural models must not change the
// run at all, and seeding after the first cycle must panic.
func TestSeedMicroarch(t *testing.T) {
	p, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	run := func(inject bool) *Core {
		c, err := newLoaded(mach, config.RECRSRU, []*program.Program{p})
		if err != nil {
			t.Fatal(err)
		}
		if inject {
			c.SeedMicroarch(bpred.New(bpred.Default(mach.Contexts)),
				confidence.New(confidence.Default()),
				cache.NewHierarchy(cache.DefaultHierarchy(mach.CacheScale)))
		}
		if _, err := c.Run(5_000, 40*5_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(false), run(true)
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Committed != b.Stats.Committed ||
		a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Errorf("fresh-model injection perturbed the run: %+v vs %+v", a.Stats, b.Stats)
	}

	c, err := newLoaded(mach, config.SMT, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	c.Cycle()
	defer func() {
		if recover() == nil {
			t.Error("SeedMicroarch after the first cycle did not panic")
		}
	}()
	c.SeedMicroarch(nil, nil, nil)
}

// Load adopts the given models and seed memory, and runs exactly as
// NewSeeded followed by SeedMicroarch with equal copies of the same
// warm models: the benchmark's sampled replay, which seeds that way,
// measures the state production builds.
func TestLoadMatchesSeedMicroarch(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	progs := []*program.Program{p}
	warm, err := newLoaded(mach, config.RECRSRU, progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(20_000, 40*20_000); err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(25_000)
	seed := func() *ArchState { return &ArchState{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone()} }
	run := func(c *Core) *Core {
		if _, err := c.Run(5_000, 40*5_000); err != nil {
			t.Fatal(err)
		}
		return c
	}

	m := Models{Pred: warm.pred.Clone(), Conf: warm.conf.Clone(), Mem: warm.mem.Clone()}
	s := seed()
	a, err := loadedWith(mach, config.RECRSRU, progs, []*ArchState{s}, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.pred != m.Pred || a.conf != m.Conf || a.mem != m.Mem || a.parts[0].mem != s.Mem {
		t.Fatal("Load copied its models or seed memory instead of adopting them")
	}
	run(a)

	b, err := NewSeeded(mach, config.RECRSRU, progs, []*ArchState{seed()})
	if err != nil {
		t.Fatal(err)
	}
	b.SeedMicroarch(warm.pred.Clone(), warm.conf.Clone(), warm.mem.Clone())
	run(b)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("New + Load run differs from NewSeeded + SeedMicroarch:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// modelCopies returns private copies of w's long-lived models.
func modelCopies(w *Core) Models {
	return Models{Pred: w.pred.Clone(), Conf: w.conf.Clone(), Mem: w.mem.Clone()}
}

// The reload witness: a core that has run one interval and is then
// loaded at a later point runs exactly as a new core loaded there on
// equal copies of the same warm models — the same commit stream, Stats
// and Obs — and its commits match the emulator continuing from that
// point.  A buffer Load forgot to reset (the
// MDB's entries, the written bits, a ring's pointers) leaks the first
// interval into the second and shows up here as a timing difference,
// a reuse the fresh core does not make, or a wrong value.
func TestReseedMatchesFresh(t *testing.T) {
	for _, bench := range workload.Names {
		for _, preset := range []string{"SMT", "REC/RS/RU"} {
			t.Run(bench+"/"+preset, func(t *testing.T) {
				feat, _ := config.PresetByName(preset)
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				mach := config.Big216()
				progs := []*program.Program{p}
				warm, err := newLoaded(mach, feat, progs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := warm.Run(10_000, 40*10_000); err != nil {
					t.Fatal(err)
				}
				e := emu.New(p)
				e.Run(12_000)
				used, err := loadedWith(mach, feat, progs,
					[]*ArchState{{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone()}}, modelCopies(warm))
				if err != nil {
					t.Fatal(err)
				}
				// The first interval, with every hook and recorder
				// Load must detach.
				used.CommitHook = func(CommitInfo) {}
				used.SetPoll(func() error { return nil })
				used.SetRing(obs.NewRing(64))
				used.SetPipeTrace(pipetrace.New(pipetrace.Config{MaxRecords: 1024}))
				used.Obs.Hists = true
				if _, err := used.Run(4_000, 40*4_000); err != nil {
					t.Fatal(err)
				}

				e.Run(13_000)
				seed := func() []*ArchState {
					return []*ArchState{{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone()}}
				}
				fresh, err := loadedWith(mach, feat, progs, seed(), modelCopies(warm))
				if err != nil {
					t.Fatal(err)
				}
				if err := used.Load(feat, progs, seed(), modelCopies(warm)); err != nil {
					t.Fatal(err)
				}
				if used.CommitHook != nil || used.poll != nil || used.ring != nil || used.ptrace != nil || used.cycle != 0 {
					t.Fatal("Load kept a hook, a recorder or the cycle count")
				}
				// Stale written bits only block reuse the exact mapping
				// check would allow, and the columns reuse consults are
				// reset when their paths start; stale MDB entries are
				// mostly re-inserted by the same loads.  A run seldom
				// shows either, so compare the tables directly.
				for _, part := range []struct {
					name        string
					used, fresh any
				}{
					{"written bits", used.written, fresh.written},
					{"MDB", used.mdb, fresh.mdb},
					{"register file", used.rf, fresh.rf},
					{"functional units", used.fus, fresh.fus},
				} {
					if !reflect.DeepEqual(part.used, part.fresh) {
						t.Errorf("%s: the reloaded core's differ from a fresh core's", part.name)
					}
				}

				var want, got []CommitInfo
				fresh.CommitHook = func(ci CommitInfo) { want = append(want, ci) }
				label := fmt.Sprintf("%s/%s reloaded@%d", p.Name, config.FeatureName(feat), e.Retired)
				cosim := cosimHook(t, &emu.Emulator{Prog: p, Mem: e.Mem.Clone(), PC: e.PC, Regs: e.Regs, Retired: e.Retired}, label)
				used.CommitHook = func(ci CommitInfo) {
					got = append(got, ci)
					cosim(ci)
				}
				for _, c := range []*Core{fresh, used} {
					if _, err := c.Run(5_000, 40*5_000); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reloaded core's commit stream differs from a fresh core's (%d vs %d commits)", len(got), len(want))
				}
				if !reflect.DeepEqual(used.Stats, fresh.Stats) {
					t.Errorf("Stats differ:\nreloaded %+v\nfresh    %+v", used.Stats, fresh.Stats)
				}
				if !reflect.DeepEqual(used.Obs, fresh.Obs) {
					t.Errorf("Obs differ:\nreloaded %+v\nfresh    %+v", used.Obs, fresh.Obs)
				}
			})
		}
	}
}
