package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
)

// keySchema versions the cell-key derivation.  Bump it whenever the
// canonical serialization below changes meaning: every stored record is
// addressed by the hash of this string plus the cell identity, so a
// schema bump re-keys the store cleanly (old records become unreachable
// garbage rather than wrong answers).
const keySchema = "recyclesim-cell-v1"

// Sampling is the sampled-mode schedule of a cell, and so part of its
// identity.  It travels raw: zero fields select the simulator defaults
// (period 20000, interval 1000, warmup 1000, confidence 0.95), and
// CellKey normalizes them, so default and spelled-out schedules share a
// record.  The confidence level is part of the key from day one: it
// changes the IPCLo/IPCHi/CPIHalf bounds a record serves, not just
// their label (the old cmd/experiments journal key once omitted it — a
// cache must never repeat that bug, because a durable store would
// serve the stale bounds forever).
type Sampling struct {
	Period      uint64  `json:"period,omitempty"`
	IntervalLen uint64  `json:"interval,omitempty"`
	WarmupLen   uint64  `json:"warmup,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
}

// normalized applies the simulator's schedule defaults, so a cell
// submitted with zero (default) fields shares its record with the same
// cell submitted with the defaults spelled out.
func (s Sampling) normalized() Sampling {
	if s.Period == 0 {
		s.Period = 20_000
	}
	if s.IntervalLen == 0 {
		s.IntervalLen = 1_000
	}
	if s.WarmupLen == 0 {
		s.WarmupLen = 1_000
	}
	//simlint:ignore floatcmp -- exact zero means "unset", selects the default
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	return s
}

// HashPrograms returns the content hash of a resolved workload: every
// instruction, the initialized data image (sorted by address), and the
// entry point of every program in the mix.  Two workloads with the
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
		addrs := make([]uint64, 0, len(p.Data))
		//simlint:ignore determinism -- keys are sorted immediately below
		for a := range p.Data {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(h, "data %#x %#x\n", a, p.Data[a])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CellKey derives the content address of one simulation cell: the
// SHA-256 of a canonical rendering of machine config, feature knobs,
// workload content hash, instruction budget, and (for sampled cells)
// the normalized sampling schedule including the confidence level.
// Detailed and sampled cells of the same configuration always get
// distinct keys (samp == nil vs. non-nil).
func CellKey(m config.Machine, f config.Features, workloadHash string, insts uint64, samp *Sampling) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|machine=%+v|features=%+v|workload=%s|insts=%d",
		keySchema, m, f, workloadHash, insts)
	if samp != nil {
		n := samp.normalized()
		fmt.Fprintf(&b, "|sampled=%d-%d-%d|confidence=%g",
			n.Period, n.IntervalLen, n.WarmupLen, n.Confidence)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
