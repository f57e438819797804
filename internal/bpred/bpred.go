// Package bpred implements the paper's branch prediction hardware: a
// decoupled branch target buffer (BTB) and pattern history table (PHT)
// in the style of Calder & Grunwald, with the PHT indexed by the XOR of
// the branch address and a global history register (gshare, per
// McFarling), plus a per-context return address stack.
//
// Sizes follow §4.1 of the paper: 256-entry 4-way BTB, 2K x 2-bit PHT,
// 12-entry return stack per context.
package bpred

import (
	"fmt"
	"math/bits"
	"slices"

	"recyclesim/internal/isa"
)

// Config sizes the predictor structures.
type Config struct {
	PHTEntries int // pattern history table entries (power of two)
	BTBEntries int // total BTB entries
	BTBAssoc   int // BTB associativity
	RASEntries int // return address stack depth per context
	HistBits   int // global history register width per context
	Contexts   int // hardware contexts (history and RAS are per context)
}

// Default returns the paper's configuration for n hardware contexts.
func Default(n int) Config {
	return Config{
		PHTEntries: 2048,
		BTBEntries: 256,
		BTBAssoc:   4,
		RASEntries: 12,
		HistBits:   11,
		Contexts:   n,
	}
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is the shared branch prediction unit.  PHT and BTB are
// shared between contexts; the global history register and the return
// stack are private to each context, as in SMT designs of the era.
type Predictor struct {
	cfg      Config
	pht      []uint8 // 2-bit saturating counters
	btb      []btbEntry
	lruClock uint64

	// The PHT size and the BTB set count are powers of two, so indexing
	// masks and shifts the instruction address instead of dividing.
	phtMask     uint64
	btbSetMask  uint64
	btbTagShift uint

	hist   []uint64   // per-context global history
	ras    [][]uint64 // per-context return stacks
	rasTop []int      // per-context stack pointer (index of next push)
}

// Reset sizes p for cfg and empties it, keeping its tables where they
// are large enough: weakly not-taken counters, an empty BTB and LRU
// clock, and cleared histories and return stacks.  It returns p.  It
// panics when the PHT size or the BTB set count (BTBEntries / BTBAssoc)
// is not a power of two: configurations are static, and a bad one is a
// programming error.
func (p *Predictor) Reset(cfg Config) *Predictor {
	sets := 0
	if cfg.BTBAssoc > 0 {
		sets = cfg.BTBEntries / cfg.BTBAssoc
	}
	if !pow2(cfg.PHTEntries) || !pow2(sets) || sets*cfg.BTBAssoc != cfg.BTBEntries {
		panic(fmt.Sprintf("bpred: PHT entries (%d) and BTB sets (%d entries / %d ways) must be powers of two",
			cfg.PHTEntries, cfg.BTBEntries, cfg.BTBAssoc))
	}
	*p = Predictor{
		cfg:         cfg,
		pht:         slices.Grow(p.pht[:0], cfg.PHTEntries)[:cfg.PHTEntries],
		btb:         slices.Grow(p.btb[:0], cfg.BTBEntries)[:cfg.BTBEntries],
		phtMask:     uint64(cfg.PHTEntries - 1),
		btbSetMask:  uint64(sets - 1),
		btbTagShift: uint(bits.TrailingZeros(uint(sets))),
		hist:        slices.Grow(p.hist[:0], cfg.Contexts)[:cfg.Contexts],
		ras:         slices.Grow(p.ras[:0], cfg.Contexts)[:cfg.Contexts],
		rasTop:      slices.Grow(p.rasTop[:0], cfg.Contexts)[:cfg.Contexts],
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	clear(p.btb)
	clear(p.hist)
	for c, r := range p.ras {
		p.ras[c] = slices.Grow(r[:0], cfg.RASEntries)[:cfg.RASEntries]
		clear(p.ras[c])
	}
	clear(p.rasTop)
	return p
}

// CopyFrom overwrites p with a deep copy of src, reusing p's tables and
// return stacks when they are large enough, so a buffer refilled from
// the same configuration allocates nothing.
func (p *Predictor) CopyFrom(src *Predictor) {
	pht, btb, hist, ras, rasTop := p.pht, p.btb, p.hist, p.ras, p.rasTop
	*p = *src
	p.pht = append(pht[:0], src.pht...)
	p.btb = append(btb[:0], src.btb...)
	p.hist = append(hist[:0], src.hist...)
	p.rasTop = append(rasTop[:0], src.rasTop...)
	if cap(ras) < len(src.ras) {
		ras = make([][]uint64, len(src.ras))
	}
	p.ras = ras[:len(src.ras)]
	for c := range src.ras {
		p.ras[c] = append(p.ras[c][:0], src.ras[c]...)
	}
}

// Pred is a prediction plus the recovery state the pipeline must carry
// with the branch so prediction structures can be repaired on a squash
// and trained on commit.
//
// Pred rides in every fetch-queue entry, stream item and active-list
// entry, so its fields are ordered widest first, which packs it into
// 24 bytes (TestRecordSizes in internal/core pins the size).
type Pred struct {
	Target  uint64
	GHist   uint64 // history value used for the PHT index
	RASTop  int32  // return-stack pointer before this instruction
	Taken   bool
	BTBMiss bool // indirect jump found no BTB entry (fell through)
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func (p *Predictor) phtIndex(pc, hist uint64) int {
	return int((pc/isa.InstBytes ^ hist) & p.phtMask)
}

// btbSet returns the index of the first way of pc's BTB set and pc's
// tag within the set.
func (p *Predictor) btbSet(pc uint64) (base int, tag uint64) {
	word := pc / isa.InstBytes
	return int(word&p.btbSetMask) * p.cfg.BTBAssoc, word >> p.btbTagShift
}

// Lookup predicts the direction and target of a control transfer at pc
// in context ctx into pr.  The decoded instruction supplies direct
// targets (the simulator's instruction store plays the role of a
// perfect decoder); indirect non-return jumps consult the BTB, returns
// consult the RAS.  Every field of pr is overwritten, one store each: a
// returned Pred is too wide to travel in registers, and assembling it
// on the stack and copying it out reloads narrow stores with wide
// loads, which stalls.
//
// Lookup changes no direction or history state; its one side effect is
// on BTB replacement: a BTB hit on an indirect jump refreshes that
// entry's LRU stamp, exactly as a hardware BTB read would, so the hit
// way becomes the last one btbInsert evicts from its set.
func (p *Predictor) Lookup(ctx int, pc uint64, in *isa.Inst, pr *Pred) {
	hist := p.hist[ctx]
	taken, target, miss := false, uint64(0), false
	switch {
	case in.IsCondBranch():
		taken = p.pht[p.phtIndex(pc, hist)] >= 2
		target = in.Target
	case in.IsReturn():
		taken, target = true, p.rasPeek(ctx)
	case in.IsIndirect():
		taken = true
		var hit bool
		if target, hit = p.btbLookup(pc); !hit {
			target, miss = pc+isa.InstBytes, true // no target known: fall through
		}
	case in.IsBranch(): // direct jump or call
		taken, target = true, in.Target
	}
	pr.Taken = taken
	pr.Target = target
	pr.GHist = hist
	pr.RASTop = int32(p.rasTop[ctx])
	pr.BTBMiss = miss
}

// SpecUpdate applies the speculative effects of fetching a control
// transfer: the predicted direction is shifted into the context's
// global history and calls/returns adjust the return stack.
func (p *Predictor) SpecUpdate(ctx int, in *isa.Inst, pc uint64, pr *Pred) {
	if in.IsCondBranch() {
		p.pushHist(ctx, pr.Taken)
	}
	if in.IsCall() {
		p.rasPush(ctx, pc+isa.InstBytes)
	} else if in.IsReturn() {
		p.rasPop(ctx)
	}
}

// ForceHist overwrites the context's speculative global history; used
// when recycled branches carry their trace's prediction ("the global
// history register ... is then updated with that prediction").
func (p *Predictor) ForceHist(ctx int, hist uint64) { p.hist[ctx] = hist }

// Hist returns the context's current speculative global history.
func (p *Predictor) Hist(ctx int) uint64 { return p.hist[ctx] }

// Restore rewinds a context's speculative history and return stack to
// the recovery state captured with a mispredicted branch, then shifts
// in the branch's true outcome when it was conditional.
func (p *Predictor) Restore(ctx int, in *isa.Inst, pr *Pred, actualTaken bool) {
	p.hist[ctx] = pr.GHist
	p.rasTop[ctx] = int(pr.RASTop)
	if in.IsCondBranch() {
		p.pushHist(ctx, actualTaken)
	}
	if in.IsCall() {
		p.rasPush(ctx, 0) // target re-pushed by redirected fetch; keep depth
	} else if in.IsReturn() {
		p.rasPop(ctx)
	}
}

// CopyContext duplicates context src's history and return stack into
// dst; TME uses it when spawning an alternate path so the spawned
// thread predicts as the primary would have.  The alternate takes the
// opposite direction of the forked branch, which the caller records by
// pushing the flipped outcome afterwards.
func (p *Predictor) CopyContext(dst, src int) {
	p.hist[dst] = p.hist[src]
	copy(p.ras[dst], p.ras[src])
	p.rasTop[dst] = p.rasTop[src]
}

// Commit trains the PHT and BTB with a resolved, committed branch.
func (p *Predictor) Commit(pc uint64, in *isa.Inst, pr *Pred, taken bool, target uint64) {
	if in.IsCondBranch() {
		idx := p.phtIndex(pc, pr.GHist)
		if taken {
			if p.pht[idx] < 3 {
				p.pht[idx]++
			}
		} else if p.pht[idx] > 0 {
			p.pht[idx]--
		}
	}
	if in.IsIndirect() && !in.IsReturn() && taken {
		p.btbInsert(pc, target)
	}
}

// Train applies one architecturally resolved control transfer in (a
// branch, jump, call or return) at pc in context ctx in a single call,
// leaving the predictor exactly as Lookup, SpecUpdate, Restore (on a
// mispredict) and Commit together would: on a resolved stream the
// speculative and repaired histories coincide, so only their net effect
// is applied.  It returns the predicted direction (Pred's Taken),
// which confidence training consumes.  Sampled fast-forward trains the
// warmed predictor through it.
func (p *Predictor) Train(ctx int, pc uint64, in *isa.Inst, taken bool, next uint64) (predTaken bool) {
	switch {
	case in.IsCondBranch():
		// Right or wrong, the history ends up with the true outcome.
		idx := p.phtIndex(pc, p.hist[ctx])
		ctr := p.pht[idx]
		predTaken = ctr >= 2
		if taken {
			if ctr < 3 {
				p.pht[idx] = ctr + 1
			}
		} else if ctr > 0 {
			p.pht[idx] = ctr - 1
		}
		p.pushHist(ctx, taken)
		return predTaken
	case in.IsReturn():
		p.rasPop(ctx)
	case in.IsIndirect():
		p.btbLookup(pc) // refreshes a hit's LRU stamp, as Lookup does
		if taken {
			p.btbInsert(pc, next)
		}
	case in.IsCall():
		// A mispredicted call's repair re-pushes a placeholder address.
		ret := pc + isa.InstBytes
		if !taken || next != in.Target {
			ret = 0
		}
		p.rasPush(ctx, ret)
	}
	return true
}

func (p *Predictor) pushHist(ctx int, taken bool) {
	h := p.hist[ctx] << 1
	if taken {
		h |= 1
	}
	p.hist[ctx] = h & ((1 << uint(p.cfg.HistBits)) - 1)
}

func (p *Predictor) rasPush(ctx int, addr uint64) {
	top := p.rasTop[ctx]
	p.ras[ctx][top%p.cfg.RASEntries] = addr
	p.rasTop[ctx] = top + 1
}

func (p *Predictor) rasPop(ctx int) {
	if p.rasTop[ctx] > 0 {
		p.rasTop[ctx]--
	}
}

func (p *Predictor) rasPeek(ctx int) uint64 {
	top := p.rasTop[ctx]
	if top == 0 {
		return 0
	}
	return p.ras[ctx][(top-1)%p.cfg.RASEntries]
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	base, tag := p.btbSet(pc)
	for w := 0; w < p.cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			p.lruClock++
			e.lru = p.lruClock
			return e.target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	base, tag := p.btbSet(pc)
	victim := base
	for w := 0; w < p.cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			victim = base + w
			break
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < p.btb[victim].lru {
			victim = base + w
		}
	}
	p.lruClock++
	p.btb[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.lruClock}
}
