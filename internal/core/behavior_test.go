package core

import (
	"testing"

	"recyclesim/internal/asm"
	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

func mustRun(t *testing.T, mach config.Machine, feat config.Features, names []string, insts uint64) *Core {
	t.Helper()
	progs, err := workload.MixPrograms(names)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(mach, feat, progs)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(insts, 40*insts)
	return c
}

// The feature ladder must behave as documented: SMT never forks, TME
// forks but never recycles, REC recycles but never reuses/respawns, and
// the full architecture does all three.
func TestFeatureLadder(t *testing.T) {
	mach := config.Big216()
	w := []string{"compress"}

	smt := mustRun(t, mach, config.SMT, w, 50_000).Stats
	if smt.Forks != 0 || smt.Recycled != 0 || smt.Reused != 0 {
		t.Errorf("SMT did speculative work: %+v", smt)
	}

	tme := mustRun(t, mach, config.TME, w, 50_000).Stats
	if tme.Forks == 0 {
		t.Error("TME never forked")
	}
	if tme.Recycled != 0 || tme.Merges != 0 {
		t.Error("TME recycled without the feature")
	}
	if tme.CoveredMiss == 0 {
		t.Error("TME covered no mispredicts")
	}

	rec := mustRun(t, mach, config.REC, w, 50_000).Stats
	if rec.Recycled == 0 || rec.Merges == 0 {
		t.Error("REC never recycled")
	}
	if rec.Reused != 0 || rec.Respawns != 0 {
		t.Error("REC reused/respawned without the features")
	}

	ru := mustRun(t, mach, config.RECRU, w, 50_000).Stats
	if ru.Reused == 0 {
		t.Error("REC/RU never reused")
	}

	rs := mustRun(t, mach, config.RECRS, w, 50_000).Stats
	if rs.Respawns == 0 {
		t.Error("REC/RS never respawned")
	}

	full := mustRun(t, mach, config.RECRSRU, w, 100_000).Stats
	if full.Reused == 0 || full.Respawns == 0 || full.BackMerges == 0 {
		t.Errorf("full architecture missing activity: reused=%d respawns=%d back=%d",
			full.Reused, full.Respawns, full.BackMerges)
	}
}

// TME must cover a meaningful fraction of mispredicts on a
// low-prediction-accuracy workload, and covering them must help IPC.
func TestTMECoversAndHelps(t *testing.T) {
	mach := config.Big216()
	smt := mustRun(t, mach, config.SMT, []string{"go"}, 80_000).Stats
	tme := mustRun(t, mach, config.TME, []string{"go"}, 80_000).Stats
	if tme.BranchMissCoverage() < 25 {
		t.Errorf("coverage = %.1f%%", tme.BranchMissCoverage())
	}
	if tme.IPC() <= smt.IPC() {
		t.Errorf("TME (%.3f) should beat SMT (%.3f) on go", tme.IPC(), smt.IPC())
	}
}

// Recycling must not *hurt* a predictable program (the paper's vortex
// and FP results), and the full architecture must beat TME on the
// benchmark average.
func TestRecyclingDoesNoHarmOnPredictable(t *testing.T) {
	mach := config.Big216()
	for _, w := range []string{"vortex", "tomcatv"} {
		smt := mustRun(t, mach, config.SMT, []string{w}, 60_000).Stats
		rec := mustRun(t, mach, config.RECRSRU, []string{w}, 60_000).Stats
		if rec.IPC() < smt.IPC()*0.97 {
			t.Errorf("%s: REC/RS/RU %.3f vs SMT %.3f (>3%% degradation)", w, rec.IPC(), smt.IPC())
		}
	}
}

// The headline single-program result: REC/RS/RU beats TME on average
// across the branchy integer benchmarks.
func TestRecyclingBeatsTMEOnAverage(t *testing.T) {
	mach := config.Big216()
	benches := []string{"compress", "gcc", "go", "li", "perl"}
	var tmeSum, recSum float64
	for _, w := range benches {
		tmeSum += mustRun(t, mach, config.TME, []string{w}, 60_000).Stats.IPC()
		recSum += mustRun(t, mach, config.RECRSRU, []string{w}, 60_000).Stats.IPC()
	}
	if recSum <= tmeSum {
		t.Errorf("REC/RS/RU sum %.3f should beat TME sum %.3f", recSum, tmeSum)
	}
}

// Register conservation: after an arbitrary run, every physical
// register must be exactly free or referenced.
func TestRegisterConservationAfterRun(t *testing.T) {
	for _, preset := range []string{"SMT", "TME", "REC/RS/RU"} {
		feat, _ := config.PresetByName(preset)
		c := mustRun(t, config.Big216(), feat, []string{"go", "li"}, 60_000)
		if err := c.rf.CheckConservation(); err != nil {
			t.Errorf("%s: %v", preset, err)
		}
	}
}

// Multiprogram fairness: with identical-length budgets no program
// should starve (each gets a meaningful share of commits).
func TestMultiprogramFairness(t *testing.T) {
	c := mustRun(t, config.Big216(), config.RECRSRU,
		[]string{"compress", "perl", "vortex", "gcc"}, 200_000)
	for i, n := range c.Stats.PerProgram {
		if n < 200_000/4/4 {
			t.Errorf("program %d committed only %d", i, n)
		}
	}
}

// Backward-branch recycling must dominate in the 4-program case where
// spare contexts are scarce (Table 1's trend: 44% -> 80% back merges).
func TestBackMergeTrend(t *testing.T) {
	one := mustRun(t, config.Big216(), config.RECRSRU, []string{"compress"}, 60_000).Stats
	four := mustRun(t, config.Big216(), config.RECRSRU,
		[]string{"compress", "gcc", "go", "li"}, 120_000).Stats
	if four.PctBackMerges() <= one.PctBackMerges() {
		t.Errorf("back-merge share should rise with program count: %.1f%% -> %.1f%%",
			one.PctBackMerges(), four.PctBackMerges())
	}
}

// Alternate-path policies obey their contracts: stop-8 fetches less
// down alternate paths than nostop-32.
func TestAltPolicyContracts(t *testing.T) {
	base := config.RECRSRU
	base.AltPolicy = config.AltStop
	base.AltLimit = 8
	stop8 := mustRun(t, config.Big216(), base, []string{"go"}, 60_000).Stats

	base.AltPolicy = config.AltNoStop
	base.AltLimit = 32
	nostop32 := mustRun(t, config.Big216(), base, []string{"go"}, 60_000).Stats

	if stop8.Fetched >= nostop32.Fetched {
		t.Errorf("stop-8 fetched %d, nostop-32 fetched %d", stop8.Fetched, nostop32.Fetched)
	}
}

// Construction errors.
func TestNewRejectsBadInputs(t *testing.T) {
	p, _ := workload.ByName("perl")
	if _, err := newLoaded(config.Big216(), config.SMT, nil); err == nil {
		t.Error("no programs accepted")
	}
	many := make([]*program.Program, 9)
	for i := range many {
		many[i] = p
	}
	if _, err := newLoaded(config.Big216(), config.SMT, many); err == nil {
		t.Error("too many programs accepted")
	}
	bad := config.TME
	bad.AltLimit = 0
	if _, err := newLoaded(config.Big216(), bad, []*program.Program{p}); err == nil {
		t.Error("TME without AltLimit accepted")
	}
	m := config.Big216()
	m.Contexts = 0
	if _, err := newLoaded(m, config.SMT, []*program.Program{p}); err == nil {
		t.Error("invalid machine accepted")
	}
}

// The §5.3 claim, miniaturized: recycling helps the fetch-starved
// big.1.8 machine more than it helps the fetch-rich big.2.16 at the
// same multiprogram load.
func TestFetchStarvationSensitivity(t *testing.T) {
	mix := []string{"compress", "gcc", "go", "li"}
	gain := func(m config.Machine) float64 {
		tme := mustRun(t, m, config.TME, mix, 150_000).Stats.IPC()
		rec := mustRun(t, m, config.RECRSRU, mix, 150_000).Stats.IPC()
		return rec / tme
	}
	g18 := gain(config.Big18())
	g216 := gain(config.Big216())
	if g18 <= g216 {
		t.Errorf("big.1.8 gain %.3f should exceed big.2.16 gain %.3f", g18, g216)
	}
	if g18 < 1.05 {
		t.Errorf("big.1.8 multiprogram gain too small: %.3f", g18)
	}
}

// A core builds only the recycle structures its features read: with
// Reuse off there is no MDB and no written bit-array, before and after
// a run and a Load, and with Recycle off no context ever records a
// merge point.  REC, which keeps merge points but not the reuse
// tables, shows the merge-point check can fail.
func TestFeatureGatedRecycleState(t *testing.T) {
	for _, preset := range []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"} {
		t.Run(preset, func(t *testing.T) {
			feat, ok := config.PresetByName(preset)
			if !ok {
				t.Fatalf("no preset %q", preset)
			}
			progs, err := workload.MixPrograms([]string{"gcc"})
			if err != nil {
				t.Fatal(err)
			}
			c, err := newLoaded(config.Big216(), feat, progs)
			if err != nil {
				t.Fatal(err)
			}
			tables := func(when string) {
				if has := c.mdb != nil || c.written != nil; has != feat.Reuse {
					t.Errorf("%s: Reuse=%v but MDB present=%v, written bits present=%v",
						when, feat.Reuse, c.mdb != nil, c.written != nil)
				}
			}
			tables("new")
			sawMerge := false
			for i := 0; i < 20_000 && !c.Done(); i++ {
				c.Cycle()
				for _, ctx := range c.ctxs {
					sawMerge = sawMerge || ctx.mp.FirstValid || ctx.mp.BackValid
				}
			}
			if sawMerge != feat.Recycle {
				t.Errorf("Recycle=%v but a merge point was recorded: %v", feat.Recycle, sawMerge)
			}
			tables("after a run")
			if err := c.Load(config.Big216(), feat, progs, nil, Models{}); err != nil {
				t.Fatal(err)
			}
			tables("after Load")
		})
	}
}

// TestOwnBackMergeShadowedByFirstPC pins a known fidelity gap, not a
// desired behaviour: when a context's first-PC merge point (its oldest
// retained entry) has the same PC as its backward (loop) merge point,
// tryMerge skips the loop merge.  MergePoints.Match prefers the
// first-PC point, so probeMerges leaves the backward point out.  A fix changes
// simulated results and must flip this test on purpose (see
// EXPERIMENTS.md, Table 1).
func TestOwnBackMergeShadowedByFirstPC(t *testing.T) {
	b := asm.NewBuilder("tight")
	b.Li(asm.R(1), 1_000_000)
	b.Label("loop")
	b.Addi(asm.R(2), asm.R(2), 1)
	b.Addi(asm.R(3), asm.R(3), 3)
	b.Addi(asm.R(1), asm.R(1), -1)
	b.Bne(asm.R(1), asm.R(0), "loop")
	b.Halt()
	c, err := newLoaded(config.Big216(), config.REC, []*program.Program{b.MustBuild()})
	if err != nil {
		t.Fatal(err)
	}
	// Find a cycle where the primary holds both points on the loop head,
	// has no live stream, and no other context holds a trace.
	var ctx *Context
	for i := 0; i < 20_000 && ctx == nil && !c.Done(); i++ {
		c.Cycle()
		for _, x := range c.ctxs {
			mp := x.mp
			if c.isPrimary(x) && x.stream == nil && mp.FirstValid && mp.BackValid && mp.FirstPC == mp.BackPC &&
				x.part.mask&^c.inState[CtxIdle] == 1<<uint(x.id) {
				ctx = x
			}
		}
	}
	if ctx == nil {
		t.Fatal("no cycle put both merge points of a primary on the loop head")
	}
	pc := ctx.mp.BackPC
	c.probeMerges(ctx)
	if c.tryMerge(ctx, pc) || ctx.stream != nil {
		t.Fatal("the backward merge was taken: the first-PC shadowing is fixed, so flip this test and update EXPERIMENTS.md")
	}
	// The same state without the first-PC point takes the loop merge.
	ctx.mp.FirstValid = false
	c.probeMerges(ctx)
	if !c.tryMerge(ctx, pc) || ctx.stream == nil {
		t.Error("without a first-PC point the backward merge was still skipped")
	}
}
