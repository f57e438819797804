package jobs

import (
	"context"
	"fmt"
	"strings"
	"sync"
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

// freshKey keys a cell the way the server did before the mix memo:
// rebuild the programs and hash them.  Sampled cells here all use the
// default schedule.
func freshKey(t *testing.T, c CellSpec, insts uint64) string {
	t.Helper()
	progs, err := workload.MixPrograms(c.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	var samp *store.Sampling
	if c.Sampling != nil {
		samp = &store.Sampling{}
	}
	return store.CellKey(c.Machine, c.Features, store.HashPrograms(progs), insts, samp)
}

func memoLen(s *Server) int {
	s.mixes.mu.Lock()
	defer s.mixes.mu.Unlock()
	return len(s.mixes.hashes)
}

// TestMixMemoKeysMatchFresh: for every mix of one to four programs,
// detailed and sampled, the memoized key equals a key built from
// freshly generated programs, on the first lookup and on repeats, with
// concurrent callers racing on the same mixes.
func TestMixMemoKeysMatchFresh(t *testing.T) {
	const insts = 60_000
	var cells []CellSpec
	distinct := map[string]bool{}
	for n := 1; n <= 4; n++ {
		for _, names := range workload.Mixes(n) {
			c := detailedCell(config.RECRSRU, names, insts)
			cells = append(cells, c)
			c.Sampling = &SamplingSpec{}
			cells = append(cells, c)
			distinct[strings.Join(names, "+")] = true
		}
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = freshKey(t, c, insts)
	}

	s := newKeyServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i, c := range cells {
					got, err := s.cellKey(c, insts)
					if err != nil {
						t.Errorf("pass %d %v: %v", pass, c.Workloads, err)
					} else if got != want[i] {
						t.Errorf("pass %d %v sampled=%v: memoized key %s, fresh key %s",
							pass, c.Workloads, c.Sampling != nil, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := memoLen(s); got != len(distinct) {
		t.Errorf("memo holds %d mixes, want %d", got, len(distinct))
	}
}

// TestMixMemoRejects: unknown names fail with the resolver's own error
// and are never memoized, including a name that embeds the memo's
// separator and so would alias a memoized list; an empty list keys as
// before and fails at compute, without entering the memo.
func TestMixMemoRejects(t *testing.T) {
	s := newKeyServer(t)
	if _, err := s.cellKey(detailedCell(config.SMT, []string{"compress", "gcc"}, 1_000), 1_000); err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{
		{"nonesuch"},
		{"compress", "nonesuch"},
		{"compress\x00gcc"},
	} {
		_, want := workload.MixPrograms(names)
		for pass := 0; pass < 2; pass++ {
			res := s.runCell(detailedCell(config.SMT, names, 1_000), 0, trace.Ctx{})
			if want == nil || res.Error != want.Error() {
				t.Errorf("%q pass %d: error %q, want %v", names, pass, res.Error, want)
			}
		}
	}

	empty := detailedCell(config.SMT, nil, 1_000)
	if got, err := s.cellKey(empty, 1_000); err != nil || got != freshKey(t, empty, 1_000) {
		t.Errorf("empty list keyed %q, %v", got, err)
	}
	if res := s.runCell(empty, 0, trace.Ctx{}); !strings.Contains(res.Error, "no workloads") {
		t.Errorf("empty list: error %q, want 'no workloads'", res.Error)
	}
	if got := memoLen(s); got != 1 {
		t.Errorf("memo holds %d mixes, want only compress+gcc", got)
	}
}

// TestMixMemoBounded: a memo filled to its cap is cleared rather than
// grown, and keys stay correct across the reset.
func TestMixMemoBounded(t *testing.T) {
	s := newKeyServer(t)
	s.mixes.hashes = make(map[string]string, mixHashCap)
	for i := 0; i < mixHashCap; i++ {
		s.mixes.hashes[fmt.Sprintf("filler%d", i)] = "not a hash"
	}
	c := detailedCell(config.RECRSRU, []string{"compress", "gcc"}, 60_000)
	want := freshKey(t, c, 60_000)
	for pass := 0; pass < 2; pass++ {
		if got, err := s.cellKey(c, 60_000); err != nil || got != want {
			t.Errorf("pass %d: key %s, %v; want %s", pass, got, err, want)
		}
		if n := memoLen(s); n > mixHashCap {
			t.Errorf("pass %d: memo grew to %d entries past its cap %d", pass, n, mixHashCap)
		}
	}
	if n := memoLen(s); n != 1 {
		t.Errorf("memo holds %d entries after the reset, want 1", n)
	}
}

// TestStoredCellHitAllocs: serving a stored cell costs its store lookup
// plus store.CellKey plus the memo lookup, whatever the size of the
// mix's programs.  Rebuilding and re-hashing the programs costs
// thousands of allocations per cell; this pins them off the hit path.
func TestStoredCellHitAllocs(t *testing.T) {
	s := newKeyServer(t)
	for _, names := range [][]string{workload.Mix(0, 2), workload.Mix(0, 4)} {
		c := detailedCell(config.SMT, names, 1_000)
		if res := s.runCell(c, 0, trace.Ctx{}); res.Error != "" || res.Cached {
			t.Fatalf("%v: first run %+v, want a fresh compute", names, res)
		}
		key := freshKey(t, c, 1_000)
		wh, err := s.mixes.hash(names)
		if err != nil {
			t.Fatal(err)
		}
		lookup := testing.AllocsPerRun(50, func() {
			s.store.GetOrComputeTraced(key, trace.Ctx{}, nil)
		})
		keying := testing.AllocsPerRun(50, func() {
			store.CellKey(c.Machine, c.Features, wh, 1_000, nil)
		})
		hit := testing.AllocsPerRun(50, func() {
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
