package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/sample"
)

// keySchema versions the cell-key derivation.  Bump it whenever the
// canonical serialization below changes meaning: every stored record is
// addressed by the hash of this string plus the cell identity, so a
// schema bump re-keys the store cleanly (old records become unreachable
// garbage rather than wrong answers).
const keySchema = "recyclesim-cell-v1"

// HashPrograms returns the content hash of a resolved workload: every
// instruction, the initialized data image (one line per word, in
// address order, read straight off the dense image), and the entry
// point of every program in the mix.  Two workloads with the
// same name but different generated code hash differently, so a store
// shared across simulator versions can never serve a stale workload's
// results.
func HashPrograms(progs []*program.Program) string {
	h := sha256.New()
	for _, p := range progs {
		fmt.Fprintf(h, "program %s entry=%#x code=%d\n", p.Name, p.Entry, len(p.Code))
		for i, in := range p.Code {
			fmt.Fprintf(h, "%d %+v\n", i, in)
		}
		for i, v := range p.Data {
			fmt.Fprintf(h, "data %#x %#x\n", program.DataBase+8*uint64(i), v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CellKey derives the content address of one simulation cell: the
// SHA-256 of a canonical rendering of machine config, feature knobs,
// workload content hash, instruction budget, and (for sampled cells)
// the sampling schedule with sample.Config.WithDefaults applied, so a
// cell submitted with zero (default) fields shares its record with the
// same cell submitted with the defaults spelled out.  The confidence
// level is part of the key because it changes the bounds a record
// serves, not just their label; Workers and Poll are not, because they
// never change a result.  Nor is Features.InvariantEvery: the checker
// only reads, and a run it fails is never stored.  WatchdogCycles is,
// because a run with the watchdog off can return a partial result
// where the default run fails.  Detailed and sampled cells of the same
// configuration always get distinct keys (samp == nil vs. non-nil).
func CellKey(m config.Machine, f config.Features, workloadHash string, insts uint64, samp *sample.Config) string {
	f.InvariantEvery = 0
	var b strings.Builder
	fmt.Fprintf(&b, "%s|machine=%+v|features=%+v|workload=%s|insts=%d",
		keySchema, m, f, workloadHash, insts)
	if samp != nil {
		n := samp.WithDefaults()
		fmt.Fprintf(&b, "|sampled=%d-%d-%d|confidence=%g",
			n.Period, n.IntervalLen, n.WarmupLen, n.Confidence)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
