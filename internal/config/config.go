// Package config defines machine configurations (§4.1, §5.3) and the
// feature toggles the paper's experiments sweep (SMT, TME, REC, RU, RS
// and the alternate-path fetch policies of §5.2).
package config

import (
	"fmt"

	"recyclesim/internal/cache"
)

// Machine describes the hardware configuration.
type Machine struct {
	Name string

	Contexts int // hardware contexts

	// Fetch: ICOUNT.X.Y — up to FetchThreads threads supply up to
	// FetchWidth total instructions per cycle, at most FetchBlock
	// contiguous instructions per thread (bounded by cache lines).
	FetchThreads int
	FetchWidth   int
	FetchBlock   int

	RenameWidth int // instructions renamed (fetched + recycled) per cycle
	CommitWidth int

	IQInt, IQFP int // instruction queue capacities

	IntUnits, LSUnits, FPUnits int

	ActiveList int // active-list entries per context

	// Physical registers: logical regs of all contexts plus Extra
	// renaming registers per pool (the paper uses 100).
	ExtraRegs int

	// CacheScale divides L1/L2 capacities (1 = baseline, 2 = "half
	// the cache" small machine).
	CacheScale int

	FrontEndLat int // fetch-to-rename latency (decode stages)
}

// Validate checks configuration invariants.  It returns a descriptive
// error for every malformed field rather than letting a bad value
// surface later as a mysterious simulation crash; recyclesim.Run calls
// it (and Features.Validate) before constructing a core.
func (m Machine) Validate() error {
	switch {
	case m.Contexts < 1 || m.Contexts > 16:
		return fmt.Errorf("config %s: contexts %d out of range [1,16]", m.Name, m.Contexts)
	case m.FetchThreads < 1 || m.FetchWidth < 1 || m.FetchBlock < 1:
		return fmt.Errorf("config %s: bad fetch geometry (threads=%d width=%d block=%d; all must be >= 1)",
			m.Name, m.FetchThreads, m.FetchWidth, m.FetchBlock)
	case m.FetchThreads > m.Contexts:
		return fmt.Errorf("config %s: %d fetch threads exceed %d hardware contexts", m.Name, m.FetchThreads, m.Contexts)
	case m.FetchBlock > m.FetchWidth:
		return fmt.Errorf("config %s: fetch block %d exceeds total fetch width %d", m.Name, m.FetchBlock, m.FetchWidth)
	case m.RenameWidth < 1 || m.CommitWidth < 1:
		return fmt.Errorf("config %s: bad rename/commit width (rename=%d commit=%d; both must be >= 1)",
			m.Name, m.RenameWidth, m.CommitWidth)
	case m.IQInt < 1 || m.IQFP < 1:
		return fmt.Errorf("config %s: bad queue sizes (int=%d fp=%d; both must be >= 1)", m.Name, m.IQInt, m.IQFP)
	case m.IntUnits < 1 || m.FPUnits < 1 || m.LSUnits < 1 || m.LSUnits > m.IntUnits:
		return fmt.Errorf("config %s: bad functional unit counts (int=%d ls=%d fp=%d; all >= 1 and ls <= int)",
			m.Name, m.IntUnits, m.LSUnits, m.FPUnits)
	case m.ActiveList < 8:
		return fmt.Errorf("config %s: active list of %d entries too small (minimum 8)", m.Name, m.ActiveList)
	case m.ExtraRegs < 0:
		return fmt.Errorf("config %s: negative extra registers (%d)", m.Name, m.ExtraRegs)
	case m.CacheScale < 1 || m.CacheScale&(m.CacheScale-1) != 0:
		return fmt.Errorf("config %s: cache scale %d must be a positive power of two (it divides the power-of-two cache capacities)",
			m.Name, m.CacheScale)
	case m.FrontEndLat < 0:
		return fmt.Errorf("config %s: negative front-end latency (%d)", m.Name, m.FrontEndLat)
	}
	// A scale large enough to leave a level less than one set would
	// make the core's cache.Hierarchy.Reset panic.
	if err := cache.DefaultHierarchy(m.CacheScale).Validate(); err != nil {
		return fmt.Errorf("config %s: cache scale %d too large: %w", m.Name, m.CacheScale, err)
	}
	return nil
}

// Big216 returns the baseline machine: 16-wide, fetching 8 instructions
// from each of 2 threads per cycle ("big.2.16").
func Big216() Machine {
	return Machine{
		Name:         "big.2.16",
		Contexts:     8,
		FetchThreads: 2, FetchWidth: 16, FetchBlock: 8,
		RenameWidth: 16, CommitWidth: 16,
		IQInt: 64, IQFP: 64,
		IntUnits: 12, LSUnits: 8, FPUnits: 6,
		ActiveList:  64,
		ExtraRegs:   100,
		CacheScale:  1,
		FrontEndLat: 2,
	}
}

// Big18 is the baseline machine restricted to one fetch thread per
// cycle ("big.1.8").
func Big18() Machine {
	m := Big216()
	m.Name = "big.1.8"
	m.FetchThreads, m.FetchWidth = 1, 8
	return m
}

// Small18 halves the execution resources, queues and caches and
// fetches one block per cycle ("small.1.8"), close to the machines in
// the SMT and TME papers.
func Small18() Machine {
	return Machine{
		Name:         "small.1.8",
		Contexts:     8,
		FetchThreads: 1, FetchWidth: 8, FetchBlock: 8,
		RenameWidth: 8, CommitWidth: 8,
		IQInt: 32, IQFP: 32,
		IntUnits: 6, LSUnits: 4, FPUnits: 3,
		ActiveList:  32,
		ExtraRegs:   100,
		CacheScale:  2,
		FrontEndLat: 2,
	}
}

// Small28 is the small machine with the 8-wide fetch filled by two
// threads ("small.2.8").
func Small28() Machine {
	m := Small18()
	m.Name = "small.2.8"
	m.FetchThreads = 2
	return m
}

// Machines returns all four §5.3 design points keyed by name.
func Machines() map[string]Machine {
	out := map[string]Machine{}
	for _, m := range []Machine{Big216(), Big18(), Small18(), Small28()} {
		out[m.Name] = m
	}
	return out
}

// AltPolicy is the §5.2 alternate-path fetch policy.
type AltPolicy int

// Alternate-path policies: what an alternate context may do after its
// forking branch resolves (and the instruction cap that applies to
// alternate paths throughout their life).
const (
	// AltStop stops fetch and issue immediately at resolution.
	AltStop AltPolicy = iota
	// AltFetch keeps fetching (but not issuing) up to the limit.
	AltFetch
	// AltNoStop keeps fetching and issuing up to the limit.
	AltNoStop
)

// String names the policy as the paper does.
func (p AltPolicy) String() string {
	switch p {
	case AltStop:
		return "stop"
	case AltFetch:
		return "fetch"
	case AltNoStop:
		return "nostop"
	}
	return "alt?"
}

// Features selects the architecture variant being simulated.
type Features struct {
	TME     bool // threaded multipath execution
	Recycle bool // REC: inject stored traces at merge points
	Reuse   bool // RU: bypass issue/execute when operands unchanged
	Respawn bool // RS: re-activate inactive traces instead of refetching

	AltPolicy AltPolicy // §5.2 policy for alternate paths
	AltLimit  int       // alternate path instruction cap (8/16/32)

	// TrustTrace selects §3.4's *former* method: recycled branches
	// keep the predictions stored with the trace and the global
	// history is updated with them, instead of stopping the stream at
	// the first disagreement with the current predictor (the default,
	// the paper's chosen "latter method").
	TrustTrace bool

	// InvariantEvery, when non-zero, runs the runtime invariant
	// checker over the whole machine every N cycles; any violation
	// panics with a cycle-stamped dump (see internal/invariant).  Zero
	// disables checking unless the simulator was built with the
	// siminvariant build tag, which supplies a default period.
	InvariantEvery uint64

	// WatchdogCycles is the forward-progress watchdog window: if a run
	// commits no instruction for this many consecutive cycles while
	// programs are still live, core.Run fails fast with a livelock
	// diagnosis instead of burning cycles until its cycle budget.
	// Zero selects the default window (the watchdog is on by default);
	// WatchdogOff disables it.  The window is counted in simulated
	// cycles, never wall clock, so enabling it cannot perturb
	// determinism.
	WatchdogCycles uint64
}

// WatchdogOff disables the forward-progress watchdog when assigned to
// Features.WatchdogCycles.
const WatchdogOff = ^uint64(0)

// Validate checks feature-knob consistency, rejecting combinations the
// architecture cannot express: the recycling mechanisms (§3) all build
// on TME's per-context traces, and alternate paths need a positive
// instruction cap.  The zero Features (the SMT preset) is valid.
func (f Features) Validate() error {
	switch {
	case f.AltPolicy != AltStop && f.AltPolicy != AltFetch && f.AltPolicy != AltNoStop:
		return fmt.Errorf("features %s: unknown alternate-path policy %d", FeatureName(f), int(f.AltPolicy))
	case f.AltLimit < 0:
		return fmt.Errorf("features %s: negative alternate-path limit %d", FeatureName(f), f.AltLimit)
	case f.TME && f.AltLimit <= 0:
		return fmt.Errorf("features %s: TME enabled with non-positive AltLimit %d (alternate paths need an instruction cap)",
			FeatureName(f), f.AltLimit)
	case f.Recycle && !f.TME:
		return fmt.Errorf("features %s: Recycle requires TME (recycled traces live in alternate-path active lists)", FeatureName(f))
	case f.Reuse && !f.Recycle:
		return fmt.Errorf("features %s: Reuse requires Recycle (results are reused from recycled traces)", FeatureName(f))
	case f.Respawn && !f.Recycle:
		return fmt.Errorf("features %s: Respawn requires Recycle (re-spawning activates traces through the recycle datapath)", FeatureName(f))
	case f.TrustTrace && !f.Recycle:
		return fmt.Errorf("features %s: TrustTrace requires Recycle (it selects how recycled branch predictions are handled)", FeatureName(f))
	}
	return nil
}

// Named feature presets matching the paper's figure legends.
var (
	SMT     = Features{}
	TME     = Features{TME: true, AltPolicy: AltNoStop, AltLimit: 32}
	REC     = Features{TME: true, Recycle: true, AltPolicy: AltNoStop, AltLimit: 32}
	RECRU   = Features{TME: true, Recycle: true, Reuse: true, AltPolicy: AltNoStop, AltLimit: 32}
	RECRS   = Features{TME: true, Recycle: true, Respawn: true, AltPolicy: AltNoStop, AltLimit: 32}
	RECRSRU = Features{TME: true, Recycle: true, Reuse: true, Respawn: true, AltPolicy: AltNoStop, AltLimit: 32}
)

// FeatureName renders the preset the way the paper labels it.
func FeatureName(f Features) string {
	switch {
	case !f.TME:
		return "SMT"
	case !f.Recycle:
		return "TME"
	default:
		n := "REC"
		if f.Respawn {
			n += "/RS"
		}
		if f.Reuse {
			n += "/RU"
		}
		return n
	}
}

// FullFeatureName is FeatureName with the alternate-path policy and
// limit appended when they differ from the named preset's
// ("REC/RS/RU/stop-8"; the presets' own nostop-32 adds nothing), so
// cells that differ only there, as Figure 5's do, get distinct log,
// progress and crash-bundle names.
func FullFeatureName(f Features) string {
	n := FeatureName(f)
	if p, _ := PresetByName(n); f.AltPolicy != p.AltPolicy || f.AltLimit != p.AltLimit {
		n += fmt.Sprintf("/%s-%d", f.AltPolicy, f.AltLimit)
	}
	return n
}

// presets lists the named presets in the paper's order.  FeatureName
// gives each its figure-legend name.
var presets = []Features{SMT, TME, REC, RECRU, RECRS, RECRSRU}

// PresetNames lists the presets' figure-legend names in the paper's
// order: "SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU".
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, f := range presets {
		names[i] = FeatureName(f)
	}
	return names
}

// PresetByName resolves a figure-legend name (one of PresetNames) to
// its Features.
func PresetByName(name string) (Features, bool) {
	for _, f := range presets {
		if FeatureName(f) == name {
			return f, true
		}
	}
	return Features{}, false
}
