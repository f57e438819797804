package recyclesim

import (
	"context"
	"encoding/json"
	"errors"
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

// poolCells returns every machine × SMT, TME, REC, REC/RS, REC/RS/RU ×
// 1, 2 and 4 programs, shuffled by seed, with a REC/RS/RU cell right
// before a cell without reuse on the same machine: the core that ran
// with the reuse tables must run the next cell without them.
func poolCells(t *testing.T, seed int64) []poolCell {
	t.Helper()
	var cells []poolCell
	for mi, mn := range MachineNames() {
		for fi, fn := range []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"} {
			for k, n := range []int{1, 2, 4} {
				mixes := Mixes(n)
				names := mixes[(mi+fi+k)%len(mixes)]
				progs, err := workload.MixPrograms(names)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, poolCell{MachineByName(mn), PresetByName(fn), names, progs})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i := 0; i+1 < len(cells); i++ {
		if !cells[i].feat.Reuse {
			continue
		}
		for j := i + 1; j < len(cells); j++ {
			if cells[j].mach == cells[i].mach && !cells[j].feat.Reuse {
				cells[i+1], cells[j] = cells[j], cells[i+1]
				return cells
			}
		}
	}
	t.Fatal("no reuse cell is followed by a same-machine cell without reuse")
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
// of the machine when it has one.
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

// TestPooledCoreMatchesFresh: RunContext resets the cores of finished
// runs in place for later cells on the same machine, across features
// and program counts; every cell's Result and Telemetry must equal a
// run on a core straight from core.New.
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
// the core anew costs about 580 KB.
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
	o := Options{Machine: MachineByName("big.2.16"), Features: f, Programs: progs,
		MaxInsts: 20_000, Telemetry: &Telemetry{Hists: true}}
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second run allocates %d bytes", got)
	if got > budget {
		t.Errorf("second run allocates %d bytes, over the %d-byte budget", got, budget)
	}
}

// TestFailedRunDropsItsCore: a run stopped by a SimError — an
// invariant fire from a corrupted core, or a watchdog livelock — never
// returns its core to the pool, and the next run on the machine is
// byte-identical to a run on a fresh core.
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
		// A clean run first, so the machine's pool holds a core.
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
