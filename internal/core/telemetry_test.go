package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// TestStallAttributionIdentity checks the conservation law behind the
// stall breakdown on every workload and feature preset: each cycle
// charges exactly RenameWidth slot-cycles to some cause, so the causes
// must sum to Cycles x RenameWidth with nothing left on CauseNone.
func TestStallAttributionIdentity(t *testing.T) {
	feats := []struct {
		name string
		f    config.Features
	}{
		{"SMT", config.SMT},
		{"TME", config.TME},
		{"REC", config.REC},
		{"RECRS", config.RECRS},
		{"RECRU", config.RECRU},
	}
	for _, bench := range workload.Names {
		for _, ft := range feats {
			bench, ft := bench, ft
			t.Run(bench+"/"+ft.name, func(t *testing.T) {
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				c, err := newLoaded(config.Big216(), ft.f, []*program.Program{p})
				if err != nil {
					t.Fatal(err)
				}
				c.Obs.Hists = true
				c.Run(5_000, 300_000)
				want := c.Stats.Cycles * uint64(c.mach.RenameWidth)
				if got := c.Obs.TotalSlotCycles(); got != want {
					t.Errorf("slot-cycles %d, want Cycles(%d) x RenameWidth(%d) = %d",
						got, c.Stats.Cycles, c.mach.RenameWidth, want)
				}
				if n := c.Obs.SlotCycles[obs.CauseNone]; n != 0 {
					t.Errorf("%d slot-cycles charged to CauseNone", n)
				}
				if rep := c.CheckInvariants(); !rep.OK() {
					t.Errorf("invariants: %s", rep.Error())
				}
			})
		}
	}
}

// TestTelemetryDoesNotPerturbSimulation runs the same configuration
// with telemetry fully on (ring + histograms) and fully off and
// requires a byte-identical commit stream and identical cycle count:
// observation must never change the machine being observed.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	run := func(instrument bool) (*Core, []byte) {
		p, err := workload.ByName("li")
		if err != nil {
			t.Fatal(err)
		}
		c, err := newLoaded(config.Big216(), config.RECRSRU, []*program.Program{p})
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			c.Obs.Hists = true
			c.SetRing(obs.NewRing(1024))
		}
		var buf bytes.Buffer
		c.CommitHook = func(ci CommitInfo) {
			fmt.Fprintf(&buf, "%d %x %x %v %v\n", ci.Ctx, ci.PC, ci.Result, ci.Taken, ci.Reused)
		}
		c.Run(10_000, 500_000)
		return c, buf.Bytes()
	}
	on, streamOn := run(true)
	off, streamOff := run(false)
	if !bytes.Equal(streamOn, streamOff) {
		t.Fatal("commit streams differ between telemetry on and off")
	}
	if on.Stats.Cycles != off.Stats.Cycles || on.Stats.Committed != off.Stats.Committed {
		t.Fatalf("timing drift: on=(%d cycles, %d committed) off=(%d cycles, %d committed)",
			on.Stats.Cycles, on.Stats.Committed, off.Stats.Cycles, off.Stats.Committed)
	}
}

// TestInvariantDumpIncludesFlightRecorder injects a fault into a
// machine carrying a flight recorder and requires the panic dump to
// include the recorded event tail — the recorder's whole purpose.
func TestInvariantDumpIncludesFlightRecorder(t *testing.T) {
	c := invariantCore(t)
	c.SetRing(obs.NewRing(256))
	c.invariantEvery = 1
	c.Run(200, 10_000) // populate the ring through live cycles
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
		if !strings.Contains(msg, "flight recorder") {
			t.Fatalf("panic dump missing flight-recorder section:\n%s", msg)
		}
		if !strings.Contains(msg, "commit") && !strings.Contains(msg, "rename") {
			t.Fatalf("flight-recorder section carries no events:\n%s", msg)
		}
	}()
	c.Cycle()
}
