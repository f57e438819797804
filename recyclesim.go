// Package recyclesim is a cycle-level simulator of instruction
// recycling on a multiple-path processor, reproducing Wallace, Tullsen
// and Calder, "Instruction Recycling on a Multiple-Path Processor"
// (HPCA 1999).
//
// The simulated machine is a wide simultaneous-multithreading (SMT)
// processor extended with Threaded Multipath Execution (TME): hardware
// contexts speculatively execute both sides of low-confidence branches.
// The paper's contribution — and this library's reason to exist — is
// *instruction recycling*: the per-context active lists already hold
// decoded traces of recently executed instructions, and when the fetch
// PC of a thread matches a stored trace's merge point, the trace is
// injected back into the rename stage, bypassing fetch and decode.
// Instructions whose operands are unchanged also *reuse* their old
// results and bypass issue and execution, and inactive traces can be
// *re-spawned* as new alternate paths without consuming fetch
// bandwidth.
//
// Quick start:
//
//	res, err := recyclesim.Run(recyclesim.Options{
//		Machine:   recyclesim.MachineByName("big.2.16"),
//		Features:  recyclesim.PresetByName("REC/RS/RU"),
//		Workloads: []string{"compress"},
//		MaxInsts:  200_000,
//	})
//	fmt.Printf("IPC %.3f\n", res.IPC())
//
// See the examples directory for multiprogram runs, fetch-policy
// sweeps, and custom workloads, and cmd/experiments for the harness
// that regenerates every figure and table in the paper.
package recyclesim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/obs"
	"recyclesim/internal/obs/pipetrace"
	"recyclesim/internal/program"
	"recyclesim/internal/stats"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

// Machine is a hardware configuration (re-exported from the internal
// config package).
type Machine = config.Machine

// Features selects the architecture variant (SMT / TME / REC / RU /
// RS combinations and the alternate-path policy).
type Features = config.Features

// AltPolicy is the §5.2 alternate-path fetch policy.
type AltPolicy = config.AltPolicy

// Alternate-path policy values.
const (
	AltStop   = config.AltStop
	AltFetch  = config.AltFetch
	AltNoStop = config.AltNoStop
)

// WatchdogOff disables the forward-progress watchdog when assigned to
// Features.WatchdogCycles (zero selects the default window instead).
const WatchdogOff = config.WatchdogOff

// Result carries the statistics of one simulation run.
type Result = stats.Sim

// CommitInfo describes one committed instruction, delivered through
// Options.CommitHook in commit order.
type CommitInfo = core.CommitInfo

// Program is an assembled program image.
type Program = program.Program

// Telemetry aggregates the typed pipeline telemetry of one or more
// runs: per-cause stall attribution (every cycle x rename-slot charged
// to exactly one cause) and, when Hists is set before the run, the
// occupancy/stream-length/fork-lifetime histograms.
type Telemetry = obs.Metrics

// FlightRecorder is a fixed-size ring of typed pipeline events, dumped
// automatically when the invariant checker fires.
type FlightRecorder = obs.Ring

// Snapshot bundles a run's statistics, telemetry, and flight recorder
// for export; see WriteJSON and WriteText.
type Snapshot = obs.Snapshot

// NewFlightRecorder builds a recorder keeping the last n events
// (rounded up to a power of two).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewRing(n) }

// PipeTracer records per-instruction pipeline stage timelines (the
// cycle each traced instruction entered fetch/rename/queue/issue/
// writeback and how it left), exportable as Chrome trace_event JSON
// (WriteChrome) or Konata text (WriteKonata).
type PipeTracer = pipetrace.Recorder

// PipeTraceConfig bounds a PipeTracer: sampling rate, PC range, cycle
// window, and record caps.
type PipeTraceConfig = pipetrace.Config

// NewPipeTracer builds a pipetrace recorder; the zero config traces
// every instruction up to the default caps.
func NewPipeTracer(cfg PipeTraceConfig) *PipeTracer { return pipetrace.New(cfg) }

// Feature presets matching the paper's figure legends.
var (
	SMT     = config.SMT
	TME     = config.TME
	REC     = config.REC
	RECRU   = config.RECRU
	RECRS   = config.RECRS
	RECRSRU = config.RECRSRU
)

// LookupMachine resolves one of the paper's four machine design
// points: "big.2.16" (baseline), "big.1.8", "small.1.8", "small.2.8".
// The boolean reports whether the name is known; CLI front-ends use
// this form to reject bad input without panicking.
func LookupMachine(name string) (Machine, bool) {
	m, ok := config.Machines()[name]
	return m, ok
}

// MachineByName is LookupMachine for static call sites. Unknown names
// panic: configurations are static program data.
func MachineByName(name string) Machine {
	m, ok := LookupMachine(name)
	if !ok {
		panic(fmt.Sprintf("recyclesim: unknown machine %q", name))
	}
	return m
}

// LookupPreset resolves a figure-legend feature name ("SMT", "TME",
// "REC", "REC/RU", "REC/RS", "REC/RS/RU").  The boolean reports
// whether the name is known.
func LookupPreset(name string) (Features, bool) {
	return config.PresetByName(name)
}

// PresetByName is LookupPreset for static call sites; unknown names
// panic.
func PresetByName(name string) Features {
	f, ok := LookupPreset(name)
	if !ok {
		panic(fmt.Sprintf("recyclesim: unknown feature preset %q", name))
	}
	return f
}

// MachineNames lists the known machine configurations in sorted order.
func MachineNames() []string {
	ms := config.Machines()
	names := make([]string, 0, len(ms))
	//simlint:ignore determinism -- keys are sorted immediately below
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PresetNames lists the feature presets in the paper's order.
func PresetNames() []string { return config.PresetNames() }

// FeatureName renders a Features value the way the paper labels it.
func FeatureName(f Features) string { return config.FeatureName(f) }

// Workloads lists the built-in benchmark names in the paper's order.
func Workloads() []string { return append([]string(nil), workload.Names...) }

// WorkloadByName builds one of the built-in SPEC95-like benchmarks.
func WorkloadByName(name string) (*Program, error) { return workload.ByName(name) }

// Mixes returns the eight multiprogram permutations of size n used by
// the multi-thread experiments.
func Mixes(n int) [][]string { return workload.Mixes(n) }

// Options configures one simulation run.
type Options struct {
	Machine  Machine
	Features Features

	// Workloads names built-in benchmarks (one partition each).
	// Programs, when non-empty, is used instead, and Workloads, if
	// given, only names those programs in fingerprints and crash
	// bundles.
	Workloads []string
	Programs  []*Program

	// MaxInsts bounds total committed instructions (default
	// DefaultMaxInsts).  A detailed run also stops after 40*MaxInsts
	// simulated cycles (core.MaxCPI), the backstop every run shares.
	MaxInsts uint64

	// CommitHook, when non-nil, observes every committed instruction
	// in commit order, on the goroutine running the simulation.
	CommitHook func(CommitInfo)

	// Telemetry, when non-nil, receives the run's stall attribution
	// and (if Telemetry.Hists is set on entry) histograms, accumulated
	// via Add so one Telemetry can aggregate many runs.  Do not share a
	// Telemetry between concurrent runs.
	Telemetry *Telemetry

	// FlightRecorder, when non-nil, records typed pipeline events
	// during the run and is included in invariant-failure dumps.
	FlightRecorder *FlightRecorder

	// PipeTrace, when non-nil, records per-instruction stage timelines
	// during the run.  Do not share a tracer between concurrent runs.
	PipeTrace *PipeTracer

	// SnapshotHook, when non-nil, receives an immutable copy of the
	// run's statistics and telemetry every 65,536 committed
	// instructions and once more after the run — the feed for a live
	// observability server.  The copies never alias simulator state,
	// so the hook may hand them to other goroutines.
	SnapshotHook func(*Snapshot)

	// Sampling, when non-nil, supplies the schedule for RunSampled;
	// the detailed Run/RunContext entry points ignore it.  A
	// nil Sampling makes RunSampled use the default schedule.
	Sampling *Sampling

	// CrashDir, when non-empty, persists a plain-text crash bundle
	// (config, partial stats, machine dump, flight-recorder and
	// pipetrace tails, panic stack) for every run that fails with
	// ErrPanic or ErrLivelock.  The SimError's BundlePath records where
	// it landed.
	CrashDir string

	// hookCore, when non-nil, observes the constructed core after all
	// hooks are attached and before the first cycle.  Test-only fault
	// injection surface; deliberately unexported.
	hookCore func(*core.Core)
}

// Run executes one simulation and returns its statistics.
//
// On failure the error is a *SimError classifying the fault — match
// with errors.Is against ErrCanceled, ErrDeadline, ErrLivelock,
// ErrPanic.  For clean stops (cancellation, deadline, livelock) the
// partial Result is returned alongside the error and telemetry is
// still accumulated; after a contained panic the Result is nil and
// telemetry is discarded, because mid-cycle state cannot be trusted.
func Run(o Options) (*Result, error) {
	return RunContext(context.Background(), o)
}

// RunContext is Run with cooperative cancellation: the simulation
// polls ctx every 4096 simulated cycles and stops early — returning
// the partial Result and a *SimError wrapping ErrCanceled or
// ErrDeadline — when the context is done.  Polling is cycle-counted,
// so an uncancelled run commits the identical instruction stream with
// or without a context.
//
// A run takes an idle core of its machine when one is left from an
// earlier clean run and loads it in place (see idleCores); the result
// is byte-identical to a run on a newly built core.
func RunContext(ctx context.Context, o Options) (*Result, error) {
	progs, err := prepare(&o)
	if err != nil {
		return nil, err
	}
	c, err := getCore(o.Machine, o.Features, progs)
	if err != nil {
		return nil, err
	}
	c.CommitHook = o.CommitHook
	if o.SnapshotHook != nil {
		inner := o.CommitHook
		var committed uint64
		c.CommitHook = func(ci CommitInfo) {
			if inner != nil {
				inner(ci)
			}
			committed++
			if committed%snapshotEvery == 0 {
				o.SnapshotHook(coreSnapshot(c))
			}
		}
	}
	if o.Telemetry != nil {
		c.Obs.Hists = o.Telemetry.Hists
	}
	c.SetRing(o.FlightRecorder)
	c.SetPipeTrace(o.PipeTrace)
	if ctx != nil && ctx.Done() != nil {
		c.SetPoll(ctx.Err)
	}
	if o.hookCore != nil {
		o.hookCore(c)
	}

	res, runErr, panicVal, stack := runCore(c, o.MaxInsts, core.MaxCPI*o.MaxInsts)
	if runErr == nil && panicVal == nil {
		if o.Telemetry != nil {
			o.Telemetry.Add(c.Obs)
		}
		if o.SnapshotHook != nil {
			o.SnapshotHook(coreSnapshot(c))
		}
		// res is the core's own Stats, which the next Load clears.
		res = copyStats(res)
		putCore(o.Machine, c)
		return res, nil
	}

	se := simError(c, o, runErr, panicVal, stack)
	if panicVal != nil {
		// Mid-cycle state: statistics and telemetry may violate their
		// conservation identities, so neither escapes.
		res = nil
	} else {
		// Clean stop at a cycle boundary: the partial statistics and
		// telemetry are internally consistent and worth keeping.
		if o.Telemetry != nil {
			o.Telemetry.Add(c.Obs)
		}
		if o.SnapshotHook != nil {
			o.SnapshotHook(coreSnapshot(c))
		}
	}
	if o.CrashDir != "" && (errors.Is(se.Kind, ErrPanic) || errors.Is(se.Kind, ErrLivelock)) {
		if path, werr := writeCrashBundle(o.CrashDir, o, se, res); werr == nil {
			se.BundlePath = path
		}
	}
	return res, se
}

// DefaultMaxInsts is the committed-instruction budget of a run whose
// Options.MaxInsts is zero, detailed or sampled; the job service keys
// a cell submitted without a budget under it.
const DefaultMaxInsts = 200_000

// snapshotEvery is the SnapshotHook cadence in committed instructions.
const snapshotEvery = 65536

// prepare is the setup RunContext and RunSampledContext share: it
// applies the budget default to o and resolves the programs o names.
func prepare(o *Options) ([]*Program, error) {
	if o.MaxInsts == 0 {
		o.MaxInsts = DefaultMaxInsts
	}
	if len(o.Programs) > 0 {
		return o.Programs, nil
	}
	if len(o.Workloads) == 0 {
		return nil, fmt.Errorf("recyclesim: no workloads given")
	}
	return workload.MixPrograms(o.Workloads)
}

// runCore drives the core with panic containment: a panic anywhere in
// the cycle loop — simulator bug, invariant-checker fire, user hook —
// is recovered here with its stack, instead of unwinding through the
// caller (and, on a sweep worker goroutine, killing the whole
// process).
func runCore(c *core.Core, maxInsts, maxCycles uint64) (res *Result, err error, panicVal any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			panicVal, stack = r, debug.Stack()
		}
	}()
	res, err = c.Run(maxInsts, maxCycles)
	return res, err, nil, nil
}

// coreSnapshot deep-copies the statistics and telemetry a snapshot
// needs, so SnapshotHook receivers can use them after the simulation
// has moved on.
func coreSnapshot(c *core.Core) *Snapshot {
	m := *c.Obs
	return &Snapshot{Stats: copyStats(c.Stats), Metrics: &m}
}

// copyStats returns a deep copy of s.
func copyStats(s *stats.Sim) *stats.Sim {
	st := *s
	st.PerProgram = append([]uint64(nil), s.PerProgram...)
	return &st
}

// idleCores keeps the cores of finished runs for RunContext to load
// anew rather than build, by machine (a core's machine is fixed; its
// features and programs are not).  Only a core whose run ended cleanly
// goes back; one stopped by an error or a panic is dropped.  The list
// (sweep.FreeList) always keeps the newest core of each worker, and an
// older one until two garbage collections pass, so a sweep that
// returns to a machine finds its core while cores of machines no
// longer run do not pile up.  Cores from NewCore never enter; sampled
// runs keep their seed cores with the rest of their run state (see
// sample.Run).
var idleCores sweep.FreeList[Machine, *core.Core]

// getCore returns a core of m loaded with f and progs: an idle one
// when there is one, else a new one.
func getCore(m Machine, f Features, progs []*Program) (*core.Core, error) {
	c, _ := idleCores.Get(m)
	return loadCore(c, m, f, progs)
}

// loadCore loads c, or a new core of m when c is nil, with f and progs
// from every program's entry: the one path by which a new and an idle
// core alike reach their starting state.
func loadCore(c *core.Core, m Machine, f Features, progs []*Program) (*core.Core, error) {
	if c == nil {
		var err error
		if c, err = core.New(m); err != nil {
			return nil, err
		}
	}
	if err := c.Load(f, progs, nil, core.Models{}); err != nil {
		return nil, err
	}
	return c, nil
}

// putCore keeps the core of a clean run on m for a later getCore,
// detaching the caller's hooks and recorders so an idle core holds on
// to none of them.
func putCore(m Machine, c *core.Core) {
	c.CommitHook = nil
	c.SetPoll(nil)
	c.SetRing(nil)
	c.SetPipeTrace(nil)
	idleCores.Put(m, c)
}

// NewCore builds a core directly for callers that need cycle-stepping,
// commit hooks, or custom instrumentation (see internal/core for the
// full surface used by the test suite).  The core is the caller's: it
// never enters the pool RunContext reuses.
func NewCore(m Machine, f Features, progs []*Program) (*core.Core, error) {
	return loadCore(nil, m, f, progs)
}
