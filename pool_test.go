package recyclesim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"recyclesim/internal/core"
	"recyclesim/internal/obs"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

// poolCellInsts is each pooled-core cell's budget: enough to fork,
// recycle, reuse and fill caches, small enough for -race.
const poolCellInsts = 3_000

// poolCell is one configuration of the pooled-core matrix.
type poolCell struct {
	mach  Machine
	feat  Features
	names []string
	progs []*Program
}

func (pc poolCell) String() string {
	return pc.mach.Name + " " + FeatureName(pc.feat) + " " + strings.Join(pc.names, "+")
}

// poolMachines returns the four paper machines and two off its grid
// that change every buffer a core sizes for its machine: one with
// fewer contexts, a smaller active list and register pool and caches a
// quarter of the baseline's, and one with 16 contexts and more extra
// registers.
func poolMachines() []Machine {
	var ms []Machine
	for _, n := range MachineNames() {
		ms = append(ms, MachineByName(n))
	}
	few := MachineByName("small.2.8")
	few.Name, few.Contexts, few.ActiveList, few.ExtraRegs, few.CacheScale = "few.4", 4, 16, 40, 4
	many := MachineByName("big.2.16")
	many.Name, many.Contexts, many.ExtraRegs = "many.16", 16, 160
	return append(ms, few, many)
}

// poolCells returns every pool machine × SMT, TME, REC, REC/RS,
// REC/RS/RU × 1, 2 and 4 programs, shuffled by seed, with a REC/RS/RU
// cell right before a cell without reuse: the core that ran with the
// reuse tables must run the next cell without them.  Consecutive cells
// mostly change machine, so the one idle core a serial run reuses grows
// and shrinks every buffer.
func poolCells(t *testing.T, seed int64) []poolCell {
	t.Helper()
	var cells []poolCell
	for mi, m := range poolMachines() {
		for fi, fn := range []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"} {
			for k, n := range []int{1, 2, 4} {
				mixes := Mixes(n)
				names := mixes[(mi+fi+k)%len(mixes)]
				progs, err := workload.MixPrograms(names)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, poolCell{m, PresetByName(fn), names, progs})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := 0; i+1 < len(cells); i++ {
		if !cells[i].feat.Reuse {
			continue
		}
		for j := i + 1; j < len(cells); j++ {
			if !cells[j].feat.Reuse {
				cells[i+1], cells[j] = cells[j], cells[i+1]
				return cells
			}
		}
	}
	t.Fatal("no reuse cell is followed by a cell without reuse")
	return nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// freshRun runs the cell on a core of its own from NewCore and
// returns the Result and Telemetry JSON: the reference a pooled run
// must equal.
func freshRun(t *testing.T, pc poolCell, insts uint64) (res, tel string) {
	t.Helper()
	c, err := NewCore(pc.mach, pc.feat, pc.progs)
	if err != nil {
		t.Fatal(err)
	}
	c.Obs.Hists = true
	st, err := c.Run(insts, core.MaxCPI*insts)
	if err != nil {
		t.Fatalf("%v: fresh core: %v", pc, err)
	}
	return mustJSON(t, st), mustJSON(t, c.Obs)
}

// pooledRun runs the cell through RunContext, which takes an idle core
// when it has one.
func pooledRun(t *testing.T, pc poolCell, insts uint64) (res, tel string) {
	t.Helper()
	m := &Telemetry{Hists: true}
	st, err := RunContext(context.Background(), Options{
		Machine: pc.mach, Features: pc.feat, Workloads: pc.names, Programs: pc.progs,
		MaxInsts: insts, Telemetry: m,
	})
	if err != nil {
		t.Fatalf("%v: RunContext: %v", pc, err)
	}
	return mustJSON(t, st), mustJSON(t, m)
}

func checkPooledCell(t *testing.T, i int, pc poolCell) {
	t.Helper()
	gotRes, gotTel := pooledRun(t, pc, poolCellInsts)
	wantRes, wantTel := freshRun(t, pc, poolCellInsts)
	if gotRes != wantRes {
		t.Errorf("cell %d (%v): Result differs from a fresh core's:\n got %s\nwant %s", i, pc, gotRes, wantRes)
	}
	if gotTel != wantTel {
		t.Errorf("cell %d (%v): Telemetry differs from a fresh core's", i, pc)
	}
}

// TestPooledCoreMatchesFresh: RunContext loads the cores of finished
// runs in place for later cells, across machines, features and program
// counts; every cell's Result and Telemetry must equal a run on a core
// of its own.
func TestPooledCoreMatchesFresh(t *testing.T) {
	for i, pc := range poolCells(t, 34) {
		checkPooledCell(t, i, pc)
	}
}

// TestPooledCoreMatchesFreshConcurrent is TestPooledCoreMatchesFresh
// on four goroutines sharing the pools; under -race it also checks
// that no core is handed to two runs at once.
func TestPooledCoreMatchesFreshConcurrent(t *testing.T) {
	cells := poolCells(t, 35)
	sweep.Run(len(cells), 4, func(i int) { checkPooledCell(t, i, cells[i]) })
}

// TestPooledRunAllocBudget: a second run on the same machine and
// programs reuses the first run's core, its models, tag pages, data
// memories and wheel slots, so it allocates almost nothing; building
// the core anew costs about 580 KB.  So does every run of a rotation
// over Workers(0)+1 machines, with a garbage collection between runs,
// once each machine has run: the idle core fits any machine, and the
// idle list keeps it whatever the collector does.
func TestPooledRunAllocBudget(t *testing.T) {
	const budget = 64 << 10
	progs, err := workload.MixPrograms([]string{"compress", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	f := RECRSRU
	// The siminvariant build's periodic checker allocates by design; a
	// period no run reaches keeps it off in every build.
	f.InvariantEvery = math.MaxUint64
	run := func(m Machine) uint64 {
		t.Helper()
		o := Options{Machine: m, Features: f, Programs: progs,
			MaxInsts: 20_000, Telemetry: &Telemetry{Hists: true}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(o)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	big := MachineByName("big.2.16")
	run(big)
	got := run(big)
	t.Logf("second run allocates %d bytes", got)
	if got > budget {
		t.Errorf("second run allocates %d bytes, over the %d-byte budget", got, budget)
	}

	names := MachineNames()
	rotation := make([]Machine, sweep.Workers(0)+1)
	for i := range rotation {
		rotation[i] = MachineByName(names[i%len(names)])
		rotation[i].Name = fmt.Sprintf("%s #%d", rotation[i].Name, i)
	}
	for pass := 0; pass < 2; pass++ {
		for _, m := range rotation {
			runtime.GC()
			got := run(m)
			if pass == 1 && got > budget {
				t.Errorf("rotation: a run on %s allocates %d bytes, over the %d-byte budget", m.Name, got, budget)
			}
		}
	}
}

// TestFailedRunDropsItsCore: a run stopped by a SimError — an
// invariant fire from a corrupted core, or a watchdog livelock — never
// returns its core to the pool, and the next run is byte-identical to a
// run on a fresh core.
func TestFailedRunDropsItsCore(t *testing.T) {
	progs, err := workload.MixPrograms([]string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	pc := poolCell{MachineByName("small.1.8"), RECRSRU, []string{"compress"}, progs}
	cases := map[string]struct {
		feat func(*Features)
		hook func(*core.Core)
		kind error
	}{
		"invariant": {
			feat: func(f *Features) { f.InvariantEvery = 64 },
			hook: func(c *core.Core) { c.Obs.SlotCycles[obs.CauseIdle] += 999 },
			kind: ErrPanic,
		},
		"livelock": {
			feat: func(f *Features) { f.WatchdogCycles = 1 },
			kind: ErrLivelock,
		},
	}
	for name, tc := range cases {
		// A clean run first, so the pool holds a core.
		pooledRun(t, pc, poolCellInsts)
		var failed, next *core.Core
		o := Options{Machine: pc.mach, Features: pc.feat, Programs: pc.progs, MaxInsts: poolCellInsts}
		tc.feat(&o.Features)
		o.hookCore = func(c *core.Core) {
			failed = c
			if tc.hook != nil {
				tc.hook(c)
			}
		}
		if _, err := Run(o); !errors.Is(err, tc.kind) {
			t.Fatalf("%s: err = %v, want %v", name, err, tc.kind)
		}
		m := &Telemetry{Hists: true}
		res, err := Run(Options{Machine: pc.mach, Features: pc.feat, Programs: pc.progs,
			MaxInsts: poolCellInsts, Telemetry: m, hookCore: func(c *core.Core) { next = c }})
		if err != nil {
			t.Fatal(err)
		}
		if next == failed {
			t.Errorf("%s: the failed run's core ran the next cell", name)
		}
		wantRes, wantTel := freshRun(t, pc, poolCellInsts)
		if got := mustJSON(t, res); got != wantRes {
			t.Errorf("%s: next run's Result differs from a fresh core's:\n got %s\nwant %s", name, got, wantRes)
		}
		if mustJSON(t, m) != wantTel {
			t.Errorf("%s: next run's Telemetry differs from a fresh core's", name)
		}
	}
}
