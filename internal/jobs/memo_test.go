package jobs

import (
	"context"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/store"
	"recyclesim/internal/workload"
)

func newKeyServer(t *testing.T) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(context.Background(), st, Config{})
}

// TestStoredCellHitAllocs: serving a stored cell costs its store lookup
// plus store.CellKey plus the mix-hash memo lookup behind Spec.Key,
// whatever the size of the mix's programs.  Rebuilding and re-hashing
// the programs costs thousands of allocations per cell; this pins them
// off the hit path.
//
// Each figure averages hitAllocRuns calls.  store.CellKey formats
// through fmt, whose printers come from a sync.Pool, and under the race
// detector sync.Pool drops a quarter of what it is given on purpose:
// a call that finds no printer builds one and grows its buffer, 7
// allocations more, so CellKey costs 9 or 16 allocations and a hit 31
// or 38.  Over 50 calls the three averages drew their drops apart and
// a hit read 33 against lookup 21 + CellKey 9 + 2 about once in a
// hundred runs; over 1,000 each average sits within a few hundredths
// of its mean, 1.75 above the plain build's.
const hitAllocRuns = 1_000

func TestStoredCellHitAllocs(t *testing.T) {
	s := newKeyServer(t)
	for _, names := range [][]string{workload.Mix(0, 2), workload.Mix(0, 4)} {
		c := detailedCell(config.SMT, names, 1_000)
		if res := s.runCell(c, 0, trace.Ctx{}); res.Error != "" || res.Cached {
			t.Fatalf("%v: first run %+v, want a fresh compute", names, res)
		}
		progs, err := workload.MixPrograms(names)
		if err != nil {
			t.Fatal(err)
		}
		wh := store.HashPrograms(progs)
		key := store.CellKey(c.Machine, c.Features, wh, 1_000, nil)
		lookup := testing.AllocsPerRun(hitAllocRuns, func() {
			s.store.GetOrCompute(key, trace.Ctx{}, nil)
		})
		keying := testing.AllocsPerRun(hitAllocRuns, func() {
			store.CellKey(c.Machine, c.Features, wh, 1_000, nil)
		})
		hit := testing.AllocsPerRun(hitAllocRuns, func() {
			if res := s.runCell(c, 0, trace.Ctx{}); !res.Cached {
				t.Fatalf("%v: miss on a stored cell: %+v", names, res)
			}
		})
		if hit > lookup+keying+2 {
			t.Errorf("%v: a stored cell costs %.0f allocs, want at most lookup %.0f + CellKey %.0f + 2",
				names, hit, lookup, keying)
		}
	}
}
