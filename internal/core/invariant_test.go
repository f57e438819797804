package core

import (
	"strings"
	"testing"

	"recyclesim/internal/alist"
	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// TestCosimInvariants runs the baseline machine with the full feature
// set and the runtime invariant checker enabled at a tight period, on
// two workloads, co-simulating against the emulator throughout.  A
// violation panics inside Cycle, so completing the run is the
// assertion.
func TestCosimInvariants(t *testing.T) {
	for _, bench := range []string{"go", "li"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			feat := config.RECRSRU
			feat.InvariantEvery = 4
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			c := cosim(t, config.Big216(), feat, []*program.Program{p}, 15_000)
			if rep := c.CheckInvariants(); !rep.OK() {
				t.Fatalf("final sweep: %s", rep.Error())
			}
		})
	}
}

// TestCosimInvariantsMultiprogram exercises the checker with multiple
// partitions sharing the register file and queues.
func TestCosimInvariantsMultiprogram(t *testing.T) {
	feat := config.RECRSRU
	feat.InvariantEvery = 8
	progs, err := workload.MixPrograms(workload.Mix(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cosim(t, config.Big216(), feat, progs, 20_000)
}

// invariantCore builds a small running machine for corruption tests.
func invariantCore(t *testing.T) *Core {
	t.Helper()
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(config.Big216(), config.RECRSRU, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2_000, 100_000)
	if rep := c.CheckInvariants(); !rep.OK() {
		t.Fatalf("machine unhealthy before corruption: %s", rep.Error())
	}
	return c
}

// expectViolation asserts that the sweep reports at least one violation
// of the given rule.
func expectViolation(t *testing.T, c *Core, rule string) {
	t.Helper()
	rep := c.CheckInvariants()
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("corruption not detected: want a %q violation, got %v", rule, rep.Violations)
}

// TestInvariantDetectsRefLeak: an extra reference on a mapped register
// (a lost Release) must show up as a refcount accounting mismatch.
func TestInvariantDetectsRefLeak(t *testing.T) {
	c := invariantCore(t)
	prim := c.ctxs[c.parts[0].primary]
	for l := 1; l < len(prim.mapTab); l++ {
		if prim.mapTab[l] >= 0 {
			c.rf.AddRef(prim.mapTab[l])
			break
		}
	}
	expectViolation(t, c, "refcount")
}

// TestInvariantDetectsReusePinDrift: a stray outstanding-reuse pin
// (the §3.5 reclaim guard counting wrong) must be caught.
func TestInvariantDetectsReusePinDrift(t *testing.T) {
	c := invariantCore(t)
	c.ctxs[1].outstandingReuse += 3
	expectViolation(t, c, "reuse")
}

// TestInvariantDetectsIdleResidue: an idle context still holding a
// register map is a reclaim bug.
func TestInvariantDetectsIdleResidue(t *testing.T) {
	c := invariantCore(t)
	var idle *Context
	for _, ctx := range c.ctxs {
		if ctx.state == CtxIdle {
			idle = ctx
			break
		}
	}
	if idle == nil {
		t.Skip("no idle context after warm-up")
	}
	idle.hasMap = true
	expectViolation(t, c, "idle")
}

// TestInvariantDetectsLiveMaskDrift: the per-state context masks, the
// primary mask and the kids links steer every per-cycle scan, so a bit
// that disagrees with its context, in either direction, must be
// caught.
func TestInvariantDetectsLiveMaskDrift(t *testing.T) {
	t.Run("live context missing", func(t *testing.T) {
		c := invariantCore(t)
		c.inState[CtxActive] &^= 1 << uint(c.parts[0].primary)
		expectViolation(t, c, "ctxmask")
	})
	t.Run("idle context present", func(t *testing.T) {
		c := invariantCore(t)
		for _, ctx := range c.ctxs {
			if ctx.state == CtxIdle {
				c.inState[CtxInactive] |= 1 << uint(ctx.id)
				expectViolation(t, c, "ctxmask")
				return
			}
		}
		t.Skip("no idle context after warm-up")
	})
	t.Run("primary missing", func(t *testing.T) {
		c := invariantCore(t)
		c.primary &^= 1 << uint(c.parts[0].primary)
		expectViolation(t, c, "ctxmask")
	})
	t.Run("alternate marked primary", func(t *testing.T) {
		c := invariantCore(t)
		c.primary |= 1 << uint((c.parts[0].primary+1)%len(c.ctxs))
		expectViolation(t, c, "ctxmask")
	})
	t.Run("kid missing", func(t *testing.T) {
		c := invariantCore(t)
		prim := c.parts[0].primary
		k := c.ctxs[(prim+1)%len(c.ctxs)]
		c.ctxs[prim].kids &^= 1 << uint(k.id)
		k.parentCtx = prim
		expectViolation(t, c, "kids")
	})
	t.Run("stray kid", func(t *testing.T) {
		c := invariantCore(t)
		prim := c.ctxs[c.parts[0].primary]
		prim.kids |= 1 << uint(prim.id)
		expectViolation(t, c, "kids")
	})
	t.Run("beyond the last context", func(t *testing.T) {
		p, err := workload.ByName("compress")
		if err != nil {
			t.Fatal(err)
		}
		mach := config.Big216()
		mach.Contexts = 4
		c, err := newLoaded(mach, config.RECRSRU, []*program.Program{p})
		if err != nil {
			t.Fatal(err)
		}
		c.inState[CtxIdle] |= 1 << 4
		expectViolation(t, c, "ctxmask")
	})
}

// TestInvariantDetectsCommitDrift: an entry marked committed ahead of
// the commit pointer corrupts the active-list structure.
func TestInvariantDetectsCommitDrift(t *testing.T) {
	c := invariantCore(t)
	prim := c.ctxs[c.parts[0].primary]
	al := prim.al
	if al.CommitSeq() == al.TailSeq() {
		t.Skip("no uncommitted entries after warm-up")
	}
	e, _ := al.At(al.CommitSeq())
	e.Committed = true
	expectViolation(t, c, "alist")
}

// TestInvariantDetectsCommitCountDrift: a commit counted in the total
// but not against its program, or a halt counted without its partition
// (or the reverse), breaks the commit accounting.
func TestInvariantDetectsCommitCountDrift(t *testing.T) {
	t.Run("per-program count lost", func(t *testing.T) {
		c := invariantCore(t)
		c.Stats.PerProgram[0]--
		expectViolation(t, c, "commits")
	})
	t.Run("total count lost", func(t *testing.T) {
		c := invariantCore(t)
		c.Stats.Committed--
		expectViolation(t, c, "commits")
	})
	t.Run("halt without partition", func(t *testing.T) {
		c := invariantCore(t)
		c.haltedPrograms++
		expectViolation(t, c, "commits")
	})
	t.Run("partition done without halt", func(t *testing.T) {
		c := invariantCore(t)
		c.parts[0].done = true
		expectViolation(t, c, "commits")
	})
}

// TestInvariantDetectsQueueDrop: a dispatched, issuable entry missing
// from both instruction queues would hang forever; the membership
// check must flag it.
func TestInvariantDetectsQueueDrop(t *testing.T) {
	c := invariantCore(t)
	dropped := false
	c.iqInt.RemoveIf(func(e *alist.Entry) bool {
		if !dropped {
			dropped = true
			return true
		}
		return false
	})
	if !dropped {
		t.Skip("integer queue empty after warm-up")
	}
	expectViolation(t, c, "iq")
}

// TestInvariantPanicsWithDump: the periodic in-Cycle check must panic
// with a cycle-stamped message and machine dump on violation.
func TestInvariantPanicsWithDump(t *testing.T) {
	c := invariantCore(t)
	c.invariantEvery = 1
	c.ctxs[0].outstandingReuse++
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Cycle did not panic on a corrupted machine")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "invariant check failed at cycle") ||
			!strings.Contains(msg, "machine state at cycle") {
			t.Fatalf("panic message missing cycle stamp or dump:\n%s", msg)
		}
	}()
	c.Cycle()
}
