package sample

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

// pooledCell is one sampled run of the pooled-state matrix.
type pooledCell struct {
	prog    *program.Program
	preset  string
	workers int
}

func (c pooledCell) String() string {
	return fmt.Sprintf("%s %s workers=%d", c.prog.Name, c.preset, c.workers)
}

// pooledInsts and pooledConfig keep each cell to five short intervals,
// enough to fork, recycle, reuse and fill caches, small enough for
// -race.
const pooledInsts = 10_000

var pooledConfig = Config{Period: 2_000, IntervalLen: 200, WarmupLen: 200}

// pooledCells returns every kernel × SMT, TME, REC, REC/RS, REC/RS/RU ×
// 1, 2 and 4 workers, shuffled by seed, so consecutive runs on the
// machine change program, features and the number of slots in use.
func pooledCells(t *testing.T, seed int64) []pooledCell {
	t.Helper()
	var cells []pooledCell
	for _, name := range workload.Names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"} {
			for _, workers := range []int{1, 2, 4} {
				cells = append(cells, pooledCell{p, preset, workers})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// freshRun is Run on a state built for this run alone: the
// reference a run on pooled state must equal.
func freshRun(t *testing.T, mach config.Machine, feat config.Features, p *program.Program, insts uint64, cfg Config) *Result {
	t.Helper()
	r, err := (&runState{master: NewWarmup(mach)}).run(mach, feat, p, insts, cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkPooledSampledCell(t *testing.T, i int, c pooledCell) {
	t.Helper()
	mach := config.Big216()
	feat, _ := config.PresetByName(c.preset)
	cfg := pooledConfig
	cfg.Workers = c.workers
	got, err := Run(mach, feat, c.prog, pooledInsts, cfg)
	if err != nil {
		t.Fatalf("cell %d (%v): %v", i, c, err)
	}
	if want := freshRun(t, mach, feat, c.prog, pooledInsts, cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("cell %d (%v): Result differs from a run on a fresh state", i, c)
	}
}

// TestPooledSampledMatchesFresh: Run resets the state of finished runs
// in place for later runs on the same machine, across programs,
// features and worker counts; every Result must equal the same run on
// a state built for it alone.
func TestPooledSampledMatchesFresh(t *testing.T) {
	for i, c := range pooledCells(t, 35) {
		checkPooledSampledCell(t, i, c)
	}
}

// TestPooledSampledMatchesFreshConcurrent is TestPooledSampledMatchesFresh
// on four goroutines sharing the pool; under -race it also checks that
// no state is handed to two runs at once.
func TestPooledSampledMatchesFreshConcurrent(t *testing.T) {
	cells := pooledCells(t, 36)
	sweep.Run(len(cells), 4, func(i int) { checkPooledSampledCell(t, i, cells[i]) })
}

// TestFailedSampledRunDropsItsState: a run stopped by a Poll error in
// the middle of its checkpoint pass, or by a failed interval (here a
// watchdog livelock), never leaves its state for the next run on the
// machine, and that next run equals a run on a fresh state.  A machine
// value no other test runs keeps other tests' states out of the check
// that the machine has none idle.
func TestFailedSampledRunDropsItsState(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	mach.Name = "big.2.16 failed sampled runs"
	cfg := pooledConfig
	cfg.Workers = 2
	want := freshRun(t, mach, config.RECRSRU, p, pooledInsts, cfg)
	errStop := errors.New("stopped by test")
	cases := map[string]func() error{
		"poll error mid-pass": func() error {
			var calls atomic.Int32
			c := cfg
			c.Poll = func() error {
				if calls.Add(1) > 3 {
					return errStop
				}
				return nil
			}
			_, err := Run(mach, config.RECRSRU, p, pooledInsts, c)
			return err
		},
		"failed interval": func() error {
			f := config.RECRSRU
			f.WatchdogCycles = 1
			_, err := Run(mach, f, p, pooledInsts, cfg)
			return err
		},
	}
	for name, fail := range cases {
		// A clean run first, so the machine's pool holds a state.
		if _, err := Run(mach, config.RECRSRU, p, pooledInsts, cfg); err != nil {
			t.Fatal(err)
		}
		if err := fail(); err == nil {
			t.Fatalf("%s: the run did not fail", name)
		}
		if _, ok := idleRuns.Get(mach); ok {
			t.Errorf("%s: the failed run's state was kept for the next run", name)
		}
		got, err := Run(mach, config.RECRSRU, p, pooledInsts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the next run's Result differs from a run on a fresh state", name)
		}
	}
}
