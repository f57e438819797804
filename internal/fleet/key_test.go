package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/obs"
	"recyclesim/internal/sample"
	"recyclesim/internal/store"
	"recyclesim/internal/workload"
)

// resetMemo empties the process-wide mix-hash memo, so a test sees only
// the mixes it keys itself.
func resetMemo(t *testing.T) {
	t.Helper()
	mixes.mu.Lock()
	mixes.hashes = nil
	mixes.mu.Unlock()
}

func memoLen() int {
	mixes.mu.Lock()
	defer mixes.mu.Unlock()
	return len(mixes.hashes)
}

func keyCell(feat config.Features, names []string, insts uint64) Spec {
	return Spec{Machine: config.Big216(), Features: feat, Workloads: names, Insts: insts}
}

// freshKey keys a cell without the memo: rebuild the programs and hash
// them.  Sampled cells here all use the default schedule.
func freshKey(t *testing.T, c Spec) string {
	t.Helper()
	progs, err := workload.MixPrograms(c.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	var samp *sample.Config
	if c.Sampling != nil {
		samp = &sample.Config{}
	}
	return store.CellKey(c.Machine, c.Features, store.HashPrograms(progs), c.budget(), samp)
}

// TestMixMemoKeysMatchFresh: for every mix of one to four programs,
// detailed and sampled, the memoized key equals a key built from
// freshly generated programs, on the first lookup and on repeats, with
// concurrent callers racing on the same mixes.
func TestMixMemoKeysMatchFresh(t *testing.T) {
	resetMemo(t)
	const insts = 60_000
	var cells []Spec
	distinct := map[string]bool{}
	for n := 1; n <= 4; n++ {
		for _, names := range workload.Mixes(n) {
			c := keyCell(config.RECRSRU, names, insts)
			cells = append(cells, c)
			c.Sampling = &sample.Config{}
			cells = append(cells, c)
			distinct[strings.Join(names, "+")] = true
		}
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = freshKey(t, c)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i, c := range cells {
					got, err := c.Key()
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
	if got := memoLen(); got != len(distinct) {
		t.Errorf("memo holds %d mixes, want %d", got, len(distinct))
	}
	// The instruction default is applied once, in the key as in Execute.
	if a, b := keyCell(config.SMT, []string{"li"}, 0), keyCell(config.SMT, []string{"li"}, 200_000); mustKey(t, a) != mustKey(t, b) {
		t.Error("a zero budget and the spelled-out 200000 default keyed apart")
	}
}

func mustKey(t *testing.T, c Spec) string {
	t.Helper()
	k, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestMixMemoRejects: unknown names fail with the resolver's own error
// and are never memoized, including a name that embeds the memo's
// separator and so would alias a memoized list; an empty list keys as
// before and fails at compute, without entering the memo.
func TestMixMemoRejects(t *testing.T) {
	resetMemo(t)
	mustKey(t, keyCell(config.SMT, []string{"compress", "gcc"}, 1_000))
	for _, names := range [][]string{
		{"nonesuch"},
		{"compress", "nonesuch"},
		{"compress\x00gcc"},
	} {
		_, want := workload.MixPrograms(names)
		for pass := 0; pass < 2; pass++ {
			_, err := keyCell(config.SMT, names, 1_000).Key()
			if want == nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%q pass %d: error %v, want %v", names, pass, err, want)
			}
		}
	}

	empty := keyCell(config.SMT, nil, 1_000)
	if got := mustKey(t, empty); got != freshKey(t, empty) {
		t.Errorf("empty list keyed %q", got)
	}
	if _, err := Execute(context.Background(), empty); err == nil || !strings.Contains(err.Error(), "no workloads") {
		t.Errorf("empty list: error %v, want 'no workloads'", err)
	}
	if got := memoLen(); got != 1 {
		t.Errorf("memo holds %d mixes, want only compress+gcc", got)
	}
}

// TestMixMemoBounded: a memo filled to its cap is cleared rather than
// grown, and keys stay correct across the reset.
func TestMixMemoBounded(t *testing.T) {
	resetMemo(t)
	mixes.hashes = make(map[string]string, mixHashCap)
	for i := 0; i < mixHashCap; i++ {
		mixes.hashes[fmt.Sprintf("filler%d", i)] = "not a hash"
	}
	c := keyCell(config.RECRSRU, []string{"compress", "gcc"}, 60_000)
	want := freshKey(t, c)
	for pass := 0; pass < 2; pass++ {
		if got, err := c.Key(); err != nil || got != want {
			t.Errorf("pass %d: key %s, %v; want %s", pass, got, err, want)
		}
		if n := memoLen(); n > mixHashCap {
			t.Errorf("pass %d: memo grew to %d entries past its cap %d", pass, n, mixHashCap)
		}
	}
	if n := memoLen(); n != 1 {
		t.Errorf("memo holds %d entries after the reset, want 1", n)
	}
}

// TestBuiltinProgramsShared: the program memo hands out one *Program
// per name, on every call and within one list, and an unknown name
// fails with the resolver's own error without entering the memo.
func TestBuiltinProgramsShared(t *testing.T) {
	first, err := builtins.programs([]string{"gcc", "li", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != first[2] {
		t.Error("one name built twice within a list")
	}
	second, err := builtins.programs([]string{"li", "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != first[1] || second[1] != first[0] {
		t.Error("a second call rebuilt a memoized program")
	}
	for _, names := range [][]string{{"nonesuch"}, {"gcc", "nonesuch"}} {
		_, want := workload.MixPrograms(names)
		if _, err := builtins.programs(names); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%q: error %v, want %v", names, err, want)
		}
	}
	builtins.mu.Lock()
	_, stored := builtins.progs["nonesuch"]
	n := len(builtins.progs)
	builtins.mu.Unlock()
	if stored || n > len(workload.Names) {
		t.Errorf("memo holds %d programs (unknown name stored: %v)", n, stored)
	}
}

// TestExecuteSharedProgramsRace: goroutines computing the same detailed
// cell through Execute share one set of built programs, and each record
// is byte-identical to one computed from freshly built programs.  Under
// -race this also witnesses that no run writes a shared program.
func TestExecuteSharedProgramsRace(t *testing.T) {
	spec := keyCell(config.RECRSRU, []string{"compress", "li"}, 10_000)
	progs, err := workload.MixPrograms(spec.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	o := recyclesim.Options{Machine: spec.Machine, Features: spec.Features, Programs: progs,
		MaxInsts: spec.Insts, Telemetry: &obs.Metrics{Hists: true}}
	res, err := recyclesim.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&store.Record{Stats: res, Metrics: o.Telemetry})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	got := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := Execute(context.Background(), spec)
			if err == nil {
				got[g], err = json.Marshal(rec)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g := range workers {
		if errs[g] != nil {
			t.Errorf("goroutine %d: %v", g, errs[g])
		} else if !bytes.Equal(got[g], want) {
			t.Errorf("goroutine %d: record differs from a run on fresh programs", g)
		}
	}
}
