package core

import (
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

func newRefEmu(p *program.Program) *emu.Emulator { return emu.New(p) }

// TestDebugDivergence reruns a failing configuration and prints the
// committed history around the first divergence from the emulator.
func TestDebugDivergence(t *testing.T) {
	feat := config.REC
	p, _ := workload.ByName("su2cor")
	em := newRefEmu(p)
	c, err := newLoaded(config.Big216(), feat, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		ci  CommitInfo
		epc uint64
	}
	var hist []rec
	c.SetRing(obs.NewRing(400))
	diverged := false
	c.CommitHook = func(ci CommitInfo) {
		if diverged {
			return
		}
		st := em.Step()
		hist = append(hist, rec{ci, st.PC})
		if st.PC != ci.PC {
			diverged = true
			n := len(hist) - 12
			if n < 0 {
				n = 0
			}
			for _, r := range hist[n:] {
				t.Logf("ctx=%d pc=0x%x (emu 0x%x) %v taken=%v reused=%v result=%d",
					r.ci.Ctx, r.ci.PC, r.epc, r.ci.Inst, r.ci.Taken, r.ci.Reused, r.ci.Result)
			}
			events := c.FlightRing().Events()
			n = len(events) - 150
			if n < 0 {
				n = 0
			}
			for _, e := range events[n:] {
				t.Log(e.String())
			}
			t.Fail()
		}
	}
	c.Run(30_000, 2_000_000)
}

// TestDebugDeadlock reproduces a hang and dumps machine state once
// commits stop making progress.
func TestDebugDeadlock(t *testing.T) {
	p := workload.GenerateTerminating(7, 400)
	c, err := newLoaded(config.Big216(), config.RECRSRU, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRing(obs.NewRing(600))
	last, lastCycle := uint64(0), uint64(0)
	for i := 0; i < 4_000_000; i++ {
		c.Cycle()
		if c.Done() {
			t.Logf("halted cleanly, committed=%d", c.Stats.Committed)
			return
		}
		if c.Stats.Committed != last {
			last, lastCycle = c.Stats.Committed, c.cycle
		}
		if c.cycle-lastCycle > 20_000 {
			break
		}
	}
	t.Errorf("deadlock at cycle=%d committed=%d intFree=%d fpFree=%d iqInt=%d iqFP=%d exec=%d",
		c.cycle, c.Stats.Committed, c.rf.FreeCount(false), c.rf.FreeCount(true),
		c.iqInt.Len(), c.iqFP.Len(), c.exec.Len())
	for _, ct := range c.ctxs {
		e, ok := ct.al.Head()
		hdr := "empty"
		if ok {
			hdr = e.Inst.String()
			t.Logf("ctx %d state=%v prim=%v parent=%d/%d inflight=%d fq=%d stream=%v head={seq=%d pc=0x%x %s exec=%v iss=%v disp=%v noiss=%v reused=%v readyAt=%d}",
				ct.id, ct.state, c.isPrimary(ct), ct.parentCtx, ct.parentSeq, ct.al.InFlight(), ct.fqLen(), ct.stream != nil,
				e.Seq, e.PC, hdr, e.Executed, e.Issued, e.Dispatched, e.NoIssue, e.Reused, e.ReadyAt)
			if !e.Executed && e.Dispatched {
				t.Logf("   src1=%d ready=%v src2=%d ready=%v", e.Src1, e.Src1 < 0 || c.rf.Ready(e.Src1), e.Src2, e.Src2 < 0 || c.rf.Ready(e.Src2))
			}
		} else {
			t.Logf("ctx %d state=%v prim=%v parent=%d/%d inflight=0 fq=%d stream=%v fetchPC=0x%x stall=%d halted=%v capped=%v outReuse=%d",
				ct.id, ct.state, c.isPrimary(ct), ct.parentCtx, ct.parentSeq, ct.fqLen(), ct.stream != nil, ct.fetchPC, ct.fetchStallUntil, ct.fetchHalted, ct.altCapped, ct.outstandingReuse)
		}
		if ct.stream != nil {
			st := ct.stream
			t.Logf("   stream: items=%d pos=%d preDrain=%d src=%d back=%v next=0x%x itemPC=0x%x",
				len(st.items), st.pos, st.preDrain, st.srcCtx, st.back, st.nextPC,
				func() uint64 {
					if st.pos < len(st.items) {
						return st.items[st.pos].pc
					}
					return 0
				}())
		}
	}
	t.Logf("stalls: regs=%d al=%d iq=%d reclaims=%d", c.Stats.RenameStallRegs, c.Stats.RenameStallAL, c.Stats.IQFullStalls, c.Stats.Reclaims)
	for _, e := range c.FlightRing().Events() {
		t.Log(e.String())
	}
}

// TestDebugMultiprogram is a scaffolding test used while developing;
// it dumps pipeline state when a multiprogram run makes no progress.
func TestDebugMultiprogram(t *testing.T) {
	progs, err := workload.MixPrograms(workload.Mix(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(config.Big216(), config.SMT, progs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Cycle()
	}
	t.Logf("cycle=%d committed=%d renamed=%d fetched=%d", c.cycle, c.Stats.Committed, c.Stats.Renamed, c.Stats.Fetched)
	for _, ct := range c.ctxs {
		if ct.state == CtxIdle {
			continue
		}
		var headInfo string
		if e, ok := ct.al.Head(); ok {
			headInfo = e.Inst.String()
			t.Logf("ctx %d state=%v prim=%v fq=%d inflight=%d head={pc=0x%x %s exec=%v issued=%v disp=%v noiss=%v src1=%d src2=%d}",
				ct.id, ct.state, c.isPrimary(ct), ct.fqLen(), ct.al.InFlight(),
				e.PC, headInfo, e.Executed, e.Issued, e.Dispatched, e.NoIssue, e.Src1, e.Src2)
			if e.Src1 >= 0 {
				t.Logf("  src1 ready=%v", c.rf.Ready(e.Src1))
			}
			if e.Src2 >= 0 {
				t.Logf("  src2 ready=%v", c.rf.Ready(e.Src2))
			}
		} else {
			t.Logf("ctx %d state=%v prim=%v fq=%d inflight=0 fetchPC=0x%x stall=%d halted=%v",
				ct.id, ct.state, c.isPrimary(ct), ct.fqLen(), ct.fetchPC, ct.fetchStallUntil, ct.fetchHalted)
		}
	}
	t.Logf("iqInt=%d iqFP=%d exec=%d", c.iqInt.Len(), c.iqFP.Len(), c.exec.Len())
	_ = program.CodeBase
}
