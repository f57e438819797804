package core

import (
	"fmt"
	"strings"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// cosim runs the core and checks that every committed instruction of
// every program exactly matches the golden in-order emulator: same PC,
// same instruction, same register result, same effective address, same
// branch direction.  This is the master architectural-correctness
// invariant — it must hold for every feature combination, including
// recycling and reuse, because those mechanisms claim value equality.
func cosim(t *testing.T, mach config.Machine, feat config.Features, progs []*program.Program, maxInsts uint64) *Core {
	t.Helper()
	emus := make([]*emu.Emulator, len(progs))
	for i, p := range progs {
		emus[i] = emu.New(p)
	}
	c, err := newLoaded(mach, feat, progs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mismatches := 0
	c.CommitHook = func(ci CommitInfo) {
		ref := emus[ci.Program].Step()
		if mismatches > 3 {
			return
		}
		fail := func(field string, want, got interface{}) {
			mismatches++
			t.Errorf("%s/%s commit #%d pc=0x%x inst=%v (ctx %d, reused=%v): %s mismatch: emulator %v, core %v",
				mach.Name, config.FeatureName(feat), emus[ci.Program].Retired,
				ci.PC, ci.Inst, ci.Ctx, ci.Reused, field, want, got)
		}
		switch {
		case ref.PC != ci.PC:
			fail("pc", ref.PC, ci.PC)
		case ref.Inst != ci.Inst:
			fail("inst", ref.Inst, ci.Inst)
		case ci.Inst.WritesReg() && ref.Result != ci.Result:
			fail("result", ref.Result, ci.Result)
		case ci.Inst.IsMem() && ref.Addr != ci.Addr:
			fail("addr", ref.Addr, ci.Addr)
		case ci.Inst.IsBranch() && ref.Taken != ci.Taken:
			fail("taken", ref.Taken, ci.Taken)
		}
	}
	if _, err := c.Run(maxInsts, 40*maxInsts+10_000); err != nil {
		t.Fatalf("%s/%s: %v", mach.Name, config.FeatureName(feat), err)
	}
	if c.Stats.Committed == 0 {
		t.Fatalf("%s/%s: nothing committed in %d cycles",
			mach.Name, config.FeatureName(feat), c.CycleCount())
	}
	return c
}

var allPresets = []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"}

func TestCosimSingleBenchmarks(t *testing.T) {
	for _, bench := range workload.Names {
		for _, preset := range allPresets {
			bench, preset := bench, preset
			t.Run(bench+"/"+preset, func(t *testing.T) {
				feat, _ := config.PresetByName(preset)
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				cosim(t, config.Big216(), feat, []*program.Program{p}, 30_000)
			})
		}
	}
}

func TestCosimMultiprogram(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, preset := range []string{"SMT", "TME", "REC/RS/RU"} {
			n, preset := n, preset
			t.Run(preset, func(t *testing.T) {
				feat, _ := config.PresetByName(preset)
				progs, err := workload.MixPrograms(workload.Mix(1, n))
				if err != nil {
					t.Fatal(err)
				}
				cosim(t, config.Big216(), feat, progs, 40_000)
			})
		}
	}
}

func TestCosimAllMachines(t *testing.T) {
	for name := range config.Machines() {
		name := name
		t.Run(name, func(t *testing.T) {
			mach := config.Machines()[name]
			p, err := workload.ByName("compress")
			if err != nil {
				t.Fatal(err)
			}
			cosim(t, mach, config.RECRSRU, []*program.Program{p}, 20_000)
		})
	}
}

func TestCosimAltPolicies(t *testing.T) {
	for _, pol := range []config.AltPolicy{config.AltStop, config.AltFetch, config.AltNoStop} {
		for _, lim := range []int{8, 16, 32} {
			pol, lim := pol, lim
			t.Run(pol.String(), func(t *testing.T) {
				feat := config.RECRSRU
				feat.AltPolicy = pol
				feat.AltLimit = lim
				p, err := workload.ByName("go")
				if err != nil {
					t.Fatal(err)
				}
				cosim(t, config.Big216(), feat, []*program.Program{p}, 20_000)
			})
		}
	}
}

func TestCosimRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run("seed", func(t *testing.T) {
			p := workload.Generate(workload.DefaultGenParams(seed))
			cosim(t, config.Big216(), config.RECRSRU, []*program.Program{p}, 15_000)
		})
	}
}

// TestCosimTerminating checks halt handling: the core must stop at the
// halt, commit exactly what the emulator retires, and report the
// program done.
func TestCosimTerminating(t *testing.T) {
	p := workload.GenerateTerminating(7, 400)
	c := cosim(t, config.Big216(), config.RECRSRU, []*program.Program{p}, 1_000_000)
	if !c.Done() {
		t.Fatalf("program did not halt (committed %d)", c.Stats.Committed)
	}
	ref := emu.New(p)
	ref.Run(10_000_000)
	if !ref.Halted {
		t.Fatal("emulator did not halt")
	}
	// +1: the core commits the halt instruction itself.
	if c.Stats.Committed != ref.Retired+1 {
		t.Fatalf("committed %d, emulator retired %d", c.Stats.Committed, ref.Retired)
	}
}

// TestDeterminism: identical configurations must produce identical
// cycle counts and statistics.
// TestDeterminism is the reproducibility witness: the same machine,
// features, and workload run twice in one process must produce a
// byte-identical commit stream (every field of every CommitInfo) and a
// byte-identical statistics structure, not just matching headline
// numbers.  Any divergence — scheduling, map iteration, a stray global
// — shows up as the first differing line.
func TestDeterminism(t *testing.T) {
	witness := func(feat config.Features, names []string, maxInsts uint64) (string, string) {
		progs, err := workload.MixPrograms(names)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newLoaded(config.Big216(), feat, progs)
		if err != nil {
			t.Fatal(err)
		}
		var commits strings.Builder
		c.CommitHook = func(ci CommitInfo) {
			fmt.Fprintf(&commits, "p%d c%d pc=%x %v res=%x addr=%x taken=%t reused=%t\n",
				ci.Program, ci.Ctx, ci.PC, ci.Inst, ci.Result, ci.Addr, ci.Taken, ci.Reused)
		}
		s, err := c.Run(maxInsts, 40*maxInsts+10_000)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *s), commits.String()
	}
	cases := []struct {
		name  string
		feat  config.Features
		names []string
	}{
		{"TME single", config.TME, []string{"compress"}},
		{"RECRSRU single", config.RECRSRU, []string{"compress"}},
		{"RECRSRU multiprogram", config.RECRSRU, []string{"go", "li"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1, c1 := witness(tc.feat, tc.names, 20_000)
			s2, c2 := witness(tc.feat, tc.names, 20_000)
			if c1 == "" {
				t.Fatal("no instructions committed")
			}
			if s1 != s2 {
				t.Errorf("stats differ between identical runs:\n run 1: %s\n run 2: %s", s1, s2)
			}
			if c1 != c2 {
				t.Errorf("commit streams differ between identical runs: %s", firstDiff(c1, c2))
			}
		})
	}
}

// firstDiff locates the first differing line of two commit streams.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}
