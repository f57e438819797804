package core

import (
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/obs/pipetrace"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// tracedCore builds a running machine with a full (unsampled)
// pipetrace recorder attached.
func tracedCore(t *testing.T, feat config.Features, bench string, cycles uint64) *Core {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(config.Big216(), feat, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPipeTrace(pipetrace.New(pipetrace.Config{}))
	c.Run(cycles, 100_000)
	return c
}

// TestPipetraceLegalSequences runs every workload under five feature
// presets with a full tracer attached and sweeps the "pipetrace"
// invariant rule over the result: recycled records must have no fetch
// stage, reused records no queue/issue/writeback, squashed records no
// retirement, and all recorded stage cycles must be monotone.
func TestPipetraceLegalSequences(t *testing.T) {
	presets := []struct {
		name string
		feat config.Features
	}{
		{"TME", config.TME},
		{"REC", config.REC},
		{"REC/RU", config.RECRU},
		{"REC/RS", config.RECRS},
		{"REC/RS/RU", config.RECRSRU},
	}
	for _, bench := range workload.Names {
		for _, pr := range presets {
			t.Run(bench+"/"+pr.name, func(t *testing.T) {
				c := tracedCore(t, pr.feat, bench, 4_000)
				if rep := c.CheckInvariants(); !rep.OK() {
					t.Fatalf("invariants: %s", rep.Error())
				}
				recs := c.PipeTrace().Records()
				if len(recs) == 0 {
					t.Fatal("tracer recorded nothing")
				}
			})
		}
	}
}

// TestPipetraceRecyclingShapes pins the paper-visible record shapes
// under full recycling: the trace of a REC/RS/RU run must contain at
// least one recycled instruction (no fetch stage) and at least one
// reused instruction (no issue or writeback).
func TestPipetraceRecyclingShapes(t *testing.T) {
	c := tracedCore(t, config.RECRSRU, "compress", 20_000)
	var recycled, reused int
	for _, rec := range c.PipeTrace().Records() {
		if rec.Recycled {
			recycled++
			if rec.Fetch != 0 {
				t.Fatalf("recycled record has a fetch stage: %+v", rec)
			}
		}
		if rec.Reused {
			reused++
			if rec.Issue != 0 || rec.Writeback != 0 {
				t.Fatalf("reused record entered execution: %+v", rec)
			}
		}
	}
	if recycled == 0 || reused == 0 {
		t.Fatalf("trace shows %d recycled and %d reused records; want both > 0", recycled, reused)
	}
}

// corruptTracedCore builds a healthy traced machine for corruption
// tests.
func corruptTracedCore(t *testing.T) *Core {
	t.Helper()
	c := tracedCore(t, config.RECRSRU, "compress", 2_000)
	if rep := c.CheckInvariants(); !rep.OK() {
		t.Fatalf("machine unhealthy before corruption: %s", rep.Error())
	}
	if len(c.PipeTrace().Records()) == 0 {
		t.Fatal("no records to corrupt")
	}
	return c
}

// TestPipetraceDetectsMissingRename: a record with no rename cycle is
// structurally impossible and must trip the checker.
func TestPipetraceDetectsMissingRename(t *testing.T) {
	c := corruptTracedCore(t)
	c.PipeTrace().Records()[0].Rename = 0
	expectViolation(t, c, "pipetrace")
}

// TestPipetraceDetectsRecycledFetch: a recycled record claiming a fetch
// cycle contradicts §3.4 (recycling bypasses fetch and decode).
func TestPipetraceDetectsRecycledFetch(t *testing.T) {
	c := corruptTracedCore(t)
	recs := c.PipeTrace().Records()
	for i := range recs {
		if recs[i].Recycled {
			recs[i].Fetch = recs[i].Rename
			expectViolation(t, c, "pipetrace")
			return
		}
	}
	t.Skip("no recycled record in warm-up window")
}

// TestPipetraceDetectsReusedIssue: a reused record claiming an issue
// cycle contradicts §3.5 (reuse bypasses issue and execution).
func TestPipetraceDetectsReusedIssue(t *testing.T) {
	c := corruptTracedCore(t)
	recs := c.PipeTrace().Records()
	for i := range recs {
		if recs[i].Reused {
			recs[i].Issue = recs[i].Rename + 1
			expectViolation(t, c, "pipetrace")
			return
		}
	}
	t.Skip("no reused record in warm-up window")
}

// TestPipetraceDetectsSquashedCommit: committed and squashed are
// mutually exclusive ends.
func TestPipetraceDetectsSquashedCommit(t *testing.T) {
	c := corruptTracedCore(t)
	recs := c.PipeTrace().Records()
	for i := range recs {
		if recs[i].Committed {
			recs[i].Squashed = true
			recs[i].Squash = recs[i].Retire
			expectViolation(t, c, "pipetrace")
			return
		}
	}
	t.Skip("no committed record in warm-up window")
}

// TestTracedAllocBudget re-runs the steady-state allocation budget with
// a full tracer attached: recording must stay allocation-free because
// all record storage is preallocated at construction.
func TestTracedAllocBudget(t *testing.T) {
	if defaultInvariantEvery != 0 {
		t.Skip("siminvariant build: the periodic checker allocates by design")
	}
	progs, err := workload.MixPrograms([]string{"compress", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(config.Big216(), config.RECRSRU, progs)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPipeTrace(pipetrace.New(pipetrace.Config{MaxRecords: 1 << 18}))
	for i := 0; i < 10_000; i++ {
		c.Cycle()
	}
	if c.Done() {
		t.Fatal("workload halted during warm-up; budget needs a longer program")
	}
	const cyclesPerRun = 2_000
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < cyclesPerRun; i++ {
			c.Cycle()
		}
	})
	if c.Done() {
		t.Fatal("workload halted during measurement; budget needs a longer program")
	}
	perCycle := avg / cyclesPerRun
	t.Logf("traced steady state: %.1f allocs per %d cycles (%.4f/cycle)", avg, cyclesPerRun, perCycle)
	if perCycle > 0.01 {
		t.Errorf("traced steady-state allocation rate %.4f/cycle exceeds budget 0.01/cycle", perCycle)
	}
}
