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
func invariantCore(t *testing.T) *Core { return invariantCoreOn(t, "compress") }

// invariantCoreOn is invariantCore running the named workload.
func invariantCoreOn(t *testing.T, bench string) *Core {
	t.Helper()
	p, err := workload.ByName(bench)
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
	prim := c.primaryOf(c.parts[0])
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
// register in its map is a reclaim bug.
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
	idle.mapTab[1] = c.primaryOf(c.parts[0]).mapTab[1]
	expectViolation(t, c, "idle")
}

// TestInvariantDetectsLiveMaskDrift: the per-state context masks, the
// primary mask and the kids links steer every per-cycle scan, so a bit
// that disagrees with its context, in either direction, must be
// caught.
func TestInvariantDetectsLiveMaskDrift(t *testing.T) {
	t.Run("live context missing", func(t *testing.T) {
		c := invariantCore(t)
		c.inState[CtxActive] &^= 1 << uint(c.primaryOf(c.parts[0]).id)
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
		c.primary &^= 1 << uint(c.primaryOf(c.parts[0]).id)
		expectViolation(t, c, "primary")
	})
	t.Run("alternate marked primary", func(t *testing.T) {
		c := invariantCore(t)
		c.primary |= 1 << uint((c.primaryOf(c.parts[0]).id+1)%len(c.ctxs))
		expectViolation(t, c, "primary")
	})
	t.Run("kid missing", func(t *testing.T) {
		c := invariantCore(t)
		prim := c.primaryOf(c.parts[0]).id
		k := c.ctxs[(prim+1)%len(c.ctxs)]
		c.ctxs[prim].kids &^= 1 << uint(k.id)
		k.parentCtx = prim
		expectViolation(t, c, "kids")
	})
	t.Run("stray kid", func(t *testing.T) {
		c := invariantCore(t)
		prim := c.primaryOf(c.parts[0])
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

// TestInvariantDetectsFrontEndMirrorDrift: the streaming and fetched
// masks pick the rename rounds' threads and the occupancy counts key
// every thread ordering, so a bit or a count that disagrees with the
// contexts and the queues must be caught.
func TestInvariantDetectsFrontEndMirrorDrift(t *testing.T) {
	primary := func(c *Core) *Context { return c.primaryOf(c.parts[0]) }
	t.Run("streaming bit flipped", func(t *testing.T) {
		c := invariantCore(t)
		c.streaming ^= 1 << uint(primary(c).id)
		expectViolation(t, c, "ctxmask")
	})
	t.Run("stream without its bit", func(t *testing.T) {
		c := invariantCore(t)
		prim := primary(c)
		if prim.stream != nil {
			prim.stream = nil
		} else {
			prim.stream = &prim.streamStore
		}
		expectViolation(t, c, "ctxmask")
	})
	t.Run("fetched bit flipped", func(t *testing.T) {
		c := invariantCore(t)
		c.fetched ^= 1 << uint(primary(c).id)
		expectViolation(t, c, "ctxmask")
	})
	t.Run("fetch queue without its bit", func(t *testing.T) {
		c := invariantCore(t)
		prim := primary(c)
		if prim.fqN != 0 {
			prim.fqN = 0
		} else {
			prim.fqN = 1
		}
		expectViolation(t, c, "ctxmask")
	})
	t.Run("occupancy count off", func(t *testing.T) {
		c := invariantCore(t)
		c.occ[primary(c).id]++
		expectViolation(t, c, "ctxmask")
	})
	t.Run("queue entry lost", func(t *testing.T) {
		c := invariantCore(t)
		lost := 0
		for id := range c.ctxs {
			lost += c.iqInt.RemoveFrom(id, 0)
		}
		if lost == 0 {
			t.Skip("integer queue empty after warm-up")
		}
		expectViolation(t, c, "ctxmask")
	})
	t.Run("beyond the last context", func(t *testing.T) {
		c := invariantCore(t)
		c.streaming |= 1 << uint(len(c.ctxs))
		expectViolation(t, c, "ctxmask")
		c = invariantCore(t)
		c.fetched |= 1 << uint(len(c.ctxs))
		expectViolation(t, c, "ctxmask")
		c = invariantCore(t)
		c.occ[len(c.ctxs)] = 1
		expectViolation(t, c, "ctxmask")
	})
}

// TestInvariantDetectsStoreQueueDrift: loads forward from the store
// queue and commit writes memory from the active list, so a dispatched
// store missing from the queue, or a slot naming anything but the
// store's live entry, must be caught.  So must a store parked for its
// data but missing from pendingSt, even while a completion still
// covers it: only pendingSt re-arms a parked store.
func TestInvariantDetectsStoreQueueDrift(t *testing.T) {
	// runUntil runs a healthy machine on bench until cond holds.
	runUntil := func(t *testing.T, bench string, cond func(c *Core) bool) *Core {
		c := invariantCoreOn(t, bench)
		for i := 0; i < 10_000 && !cond(c); i++ {
			c.Cycle()
		}
		if !cond(c) {
			t.Skip("condition never held")
		}
		return c
	}
	queued := func(c *Core) bool { return c.primaryOf(c.parts[0]).sq.len() > 0 }
	t.Run("dispatched store dropped", func(t *testing.T) {
		c := runUntil(t, "compress", queued)
		c.primaryOf(c.parts[0]).sq.popFront()
		expectViolation(t, c, "storeq")
	})
	t.Run("slot names a copy", func(t *testing.T) {
		c := runUntil(t, "compress", queued)
		sq := &c.primaryOf(c.parts[0]).sq
		cp := *sq.at(0)
		sq.ents[sq.head] = &cp
		expectViolation(t, c, "storeq")
	})
	t.Run("parked store missing from pendingSt", func(t *testing.T) {
		c := runUntil(t, "li", func(c *Core) bool { return len(c.pendingSt) > 0 })
		e := c.pendingSt[0]
		c.pendingSt = c.pendingSt[1:]
		c.exec.Schedule(e, c.cycle+1, c.cycle)
		expectViolation(t, c, "exec")
	})
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
	var oldest *alist.Entry
	c.iqInt.Each(func(e *alist.Entry) {
		if oldest == nil {
			oldest = e
		}
	})
	if oldest == nil {
		t.Skip("integer queue empty after warm-up")
	}
	c.iqInt.RemoveFrom(int(oldest.Ctx), oldest.Seq)
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
