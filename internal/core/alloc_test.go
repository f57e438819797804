package core

import (
	"runtime"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// TestSteadyStateAllocBudget pins the cycle loop's steady-state
// allocation rate at (near) zero on the baseline machine with the full
// feature set.  The hot path reuses scratch buffers, ring queues, and
// the completion wheel's slot storage, so after a warm-up period the
// only allowed allocations are rare capacity growth events; a
// regression that reintroduces per-cycle slice churn or vararg boxing
// fails this test immediately rather than showing up later as a
// throughput loss.
func TestSteadyStateAllocBudget(t *testing.T) {
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
	// Warm up: grow every scratch buffer, wheel slot, and cache
	// structure to its steady-state footprint.
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
	t.Logf("steady state: %.1f allocs per %d cycles (%.4f/cycle)", avg, cyclesPerRun, perCycle)
	// Budget: one allocation per 1,000 cycles.  About one per 2,000 is
	// measured, a completion-wheel slot growing past its largest batch
	// so far.  The MDB's FIFO as a resliced, appended slice reallocated
	// every 64 loads, about eight times per 2,000 cycles, and the
	// pre-optimization loop allocated tens of objects per cycle.
	if perCycle > 0.001 {
		t.Errorf("steady-state allocation rate %.4f/cycle exceeds budget 0.001/cycle", perCycle)
	}
}

// TestNewAllocBudget pins what loading an idle core allocates.
// The cache hierarchy allocates a tag page only when a set in it is
// first filled, so a new core holds none of the L3's 1 MB of tags; with
// the tags allocated up front building a core allocated about 1.9 MB.
func TestNewAllocBudget(t *testing.T) {
	const budget = 512 << 10
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = newLoaded(config.Big216(), config.SMT, []*program.Program{p})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("loading an idle core allocates %d bytes", got)
	if got > budget {
		t.Errorf("loading an idle core allocates %d bytes, over the %d-byte budget", got, budget)
	}
}
