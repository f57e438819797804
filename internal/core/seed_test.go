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
	c, err := NewSeeded(mach, feat, []*program.Program{p}, []*ArchState{seed})
	if err != nil {
		t.Fatalf("NewSeeded: %v", err)
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

// A nil-seed NewSeeded must behave exactly like New.
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
	a := run(func() (*Core, error) { return New(config.Big216(), config.RECRSRU, []*program.Program{p}) })
	b := run(func() (*Core, error) {
		return NewSeeded(config.Big216(), config.RECRSRU, []*program.Program{p}, nil)
	})
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Committed != b.Stats.Committed ||
		a.Stats.Recycled != b.Stats.Recycled || a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestNewSeededValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*program.Program{p}
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{nil, nil}); err == nil {
		t.Error("seed/program count mismatch accepted")
	}
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{{PC: 0x3}}); err == nil {
		t.Error("out-of-text seed PC accepted")
	}
	bad := &ArchState{PC: p.Entry}
	bad.Regs[isa.RegZero] = 1
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{bad}); err == nil {
		t.Error("nonzero zero-register seed accepted")
	}

	// Reseed validates the same way and leaves a refused core as it was.
	c, err := New(config.Big216(), config.SMT, progs)
	if err != nil {
		t.Fatal(err)
	}
	c.Cycle()
	for _, seeds := range [][]*ArchState{{nil, nil}, {{PC: 0x3}}, {bad}} {
		if err := c.Reseed(config.SMT, progs, seeds, Models{}); err == nil {
			t.Errorf("Reseed accepted %+v", seeds)
		}
	}
	if err := c.Reseed(config.Features{Recycle: true}, progs, nil, Models{}); err == nil {
		t.Error("Reseed accepted Recycle without TME")
	}
	if err := c.Reseed(config.SMT, nil, nil, Models{}); err == nil {
		t.Error("Reseed accepted no programs")
	}
	if c.CycleCount() != 1 {
		t.Error("a refused Reseed reset the core")
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
		c, err := New(mach, config.RECRSRU, []*program.Program{p})
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

	c, err := New(mach, config.SMT, []*program.Program{p})
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

// NewSeededWith adopts the given models and seed memory at
// construction, and runs exactly as NewSeeded followed by SeedMicroarch
// with equal copies of the same warm models.
func TestNewSeededWithMatchesSeedMicroarch(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	progs := []*program.Program{p}
	warm, err := New(mach, config.RECRSRU, progs)
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
	a, err := NewSeededWith(mach, config.RECRSRU, progs, []*ArchState{s}, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.pred != m.Pred || a.conf != m.Conf || a.mem != m.Mem || a.parts[0].mem != s.Mem {
		t.Fatal("NewSeededWith copied its models or seed memory instead of adopting them")
	}
	run(a)

	b, err := NewSeeded(mach, config.RECRSRU, progs, []*ArchState{seed()})
	if err != nil {
		t.Fatal(err)
	}
	b.SeedMicroarch(warm.pred.Clone(), warm.conf.Clone(), warm.mem.Clone())
	run(b)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("NewSeededWith run differs from NewSeeded + SeedMicroarch:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// modelCopies returns private copies of w's long-lived models.
func modelCopies(w *Core) Models {
	return Models{Pred: w.pred.Clone(), Conf: w.conf.Clone(), Mem: w.mem.Clone()}
}

// The Reseed witness: a core that has run one interval and is then
// reseeded at a later point runs exactly as a core freshly built there
// by NewSeededWith on equal copies of the same warm models — the same
// commit stream, Stats and Obs — and its commits match the emulator
// continuing from that point.  A buffer Reseed forgot to reset (the
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
				warm, err := New(mach, feat, progs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := warm.Run(10_000, 40*10_000); err != nil {
					t.Fatal(err)
				}
				e := emu.New(p)
				e.Run(12_000)
				used, err := NewSeededWith(mach, feat, progs,
					[]*ArchState{{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone()}}, modelCopies(warm))
				if err != nil {
					t.Fatal(err)
				}
				// The first interval, with every hook and recorder
				// Reseed must detach.
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
				fresh, err := NewSeededWith(mach, feat, progs, seed(), modelCopies(warm))
				if err != nil {
					t.Fatal(err)
				}
				if err := used.Reseed(feat, progs, seed(), modelCopies(warm)); err != nil {
					t.Fatal(err)
				}
				if used.CommitHook != nil || used.poll != nil || used.ring != nil || used.ptrace != nil || used.cycle != 0 {
					t.Fatal("Reseed kept a hook, a recorder or the cycle count")
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
						t.Errorf("%s: the reseeded core's differ from a fresh core's", part.name)
					}
				}

				var want, got []CommitInfo
				fresh.CommitHook = func(ci CommitInfo) { want = append(want, ci) }
				label := fmt.Sprintf("%s/%s reseeded@%d", p.Name, config.FeatureName(feat), e.Retired)
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
					t.Errorf("reseeded core's commit stream differs from a fresh core's (%d vs %d commits)", len(got), len(want))
				}
				if !reflect.DeepEqual(used.Stats, fresh.Stats) {
					t.Errorf("Stats differ:\nreseeded %+v\nfresh    %+v", used.Stats, fresh.Stats)
				}
				if !reflect.DeepEqual(used.Obs, fresh.Obs) {
					t.Errorf("Obs differ:\nreseeded %+v\nfresh    %+v", used.Obs, fresh.Obs)
				}
			})
		}
	}
}
