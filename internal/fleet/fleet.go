// Package fleet is the one definition of a simulation cell and the
// distributed execution layer behind the recycled job service.
//
// Spec is the only cell type: cmd/experiments builds its sweeps from
// it, the job API carries it on the wire (jobs.CellSpec is an alias),
// and workers receive it under leases.  Spec.Key is the only cell key
// (store.CellKey), and Execute is the only executor, so a cell's record
// is the same bytes whether the CLI, the daemon, or a worker computed
// it, and every one of them can share one store directory.
//
// Worker processes (cmd/recycleworker) register with the daemon,
// heartbeat, and pull cells under time-bounded leases; the Dispatcher
// requeues cells whose lease expires or whose worker dies mid-compute,
// and degrades gracefully to local in-process compute when no workers
// are attached.  A compute error is final: it is not retried.
//
// The determinism contract is the same one every layer above keeps: a
// cell's result record is a pure function of its Spec, so a failed
// compute would fail again on retry, and a sweep's output is
// byte-identical whether it ran on 0, 1, or N worker hosts —
// witnessed by the chaos tests in fleet/chaos.  The durable store above
// the dispatcher still guarantees each distinct cell is computed
// exactly once per store, no matter how many workers race, die, or
// resurrect: a requeued cell's late result from the original (stale)
// lease is dropped, never double-stored.
//
// This package is host-side service code (goroutines, wall clock,
// HTTP) and lives outside the simulator's determinism scope
// (lint.NonSimPackages); it must never be imported by simulation
// packages.
package fleet

import (
	"cmp"
	"context"
	"strings"
	"sync"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/sample"
	"recyclesim/internal/store"
	"recyclesim/internal/workload"
)

// Spec identifies one simulation cell: the full machine and feature
// configuration (by content, not by name, so custom knob combinations
// sweep exactly like presets), the workload mix, the
// committed-instruction budget, and the sampling schedule for sampled
// cells.  It is also the wire format of the job API and the worker
// protocol.
type Spec struct {
	Machine   config.Machine  `json:"machine"`
	Features  config.Features `json:"features"`
	Workloads []string        `json:"workloads"`
	// Insts is the committed-instruction budget (0 =
	// recyclesim.DefaultMaxInsts); the cycle budget is fixed at the
	// harness's 40x policy.
	Insts uint64 `json:"insts,omitempty"`
	// Sampling, when non-nil, makes this a sampled cell.  Its Workers
	// and Poll stay off the wire and out of the key; Execute pins
	// Workers to 1.
	Sampling *sample.Config `json:"sampling,omitempty"`
}

// Name renders the spec for logs and progress displays.
func (s Spec) Name() string {
	name := s.Machine.Name + "/" + config.FullFeatureName(s.Features) + "/" + strings.Join(s.Workloads, "+")
	if s.Sampling != nil {
		name = "sampled/" + name
	}
	return name
}

// budget is the committed-instruction budget with the default applied.
func (s Spec) budget() uint64 {
	return cmp.Or(s.Insts, recyclesim.DefaultMaxInsts)
}

// Key returns the cell's store key, store.CellKey over the resolved
// configuration.  The workload hash comes from a process-wide memo, so
// keying a cell whose mix was keyed before does not rebuild and
// re-hash its programs.  An unknown workload name is an error.
func (s Spec) Key() (string, error) {
	wh, err := mixes.hash(s.Workloads)
	if err != nil {
		return "", err
	}
	return store.CellKey(s.Machine, s.Features, wh, s.budget(), s.Sampling), nil
}

// mixHashCap bounds the mix-hash memo.  Clients choose the names lists,
// so the memo is cleared whenever it is full; the few distinct mixes a
// real sweep uses refill it on their next lookup.
const mixHashCap = 4096

// mixes is the process-wide memo behind Spec.Key.
var mixes mixHashes

// mixHashes memoizes store.HashPrograms of a names list's built-in
// programs per list.  Within one binary a program is a pure function of
// its name (workload.ByName uses fixed seeds), so a list's hash never
// changes while the process runs, and serving a stored cell need not
// re-hash its programs.  Lists that fail to resolve are never stored,
// nor is the empty list.
type mixHashes struct {
	mu     sync.Mutex
	hashes map[string]string // names joined by NUL -> workload hash
}

func (m *mixHashes) hash(names []string) (string, error) {
	key := strings.Join(names, "\x00")
	// A name containing the separator would alias another list; such a
	// name is unknown anyway, so it takes the resolving path and fails.
	memo := len(names) > 0 && strings.Count(key, "\x00") == len(names)-1
	if memo {
		m.mu.Lock()
		h, ok := m.hashes[key]
		m.mu.Unlock()
		if ok {
			return h, nil
		}
	}
	progs, err := builtins.programs(names)
	if err != nil {
		return "", err
	}
	h := store.HashPrograms(progs)
	if memo {
		m.mu.Lock()
		if m.hashes == nil || len(m.hashes) >= mixHashCap {
			m.hashes = make(map[string]string)
		}
		m.hashes[key] = h
		m.mu.Unlock()
	}
	return h, nil
}

// builtins is the process-wide memo of built programs behind Execute
// and Spec.Key.
var builtins builtinPrograms

// builtinPrograms builds each built-in program once per process and
// hands every cell the same *program.Program: a built program is never
// written (each run copies its data into a memory of its own), so
// concurrent cells share it safely.  Only names workload.ByName
// resolves are stored, so the memo holds at most len(workload.Names)
// programs and needs no cap.
type builtinPrograms struct {
	mu    sync.Mutex
	progs map[string]*program.Program
}

// programs returns the programs of a names list, building each name on
// its first use.  An unknown name is workload.ByName's error.
func (b *builtinPrograms) programs(names []string) ([]*program.Program, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*program.Program, len(names))
	for i, n := range names {
		p := b.progs[n]
		if p == nil {
			var err error
			if p, err = workload.ByName(n); err != nil {
				return nil, err
			}
			if b.progs == nil {
				b.progs = make(map[string]*program.Program, len(workload.Names))
			}
			b.progs[n] = p
		}
		out[i] = p
	}
	return out, nil
}

// Execute computes one cell in-process: the canonical Spec→Record
// executor behind every compute — the dispatcher's zero-worker
// fallback, cmd/recycleworker, and cmd/experiments' local sweeps.  One
// call is the cell's only attempt, and faults are contained: a panic or
// livelock comes back as an error, never takes the process down.
func Execute(ctx context.Context, spec Spec) (*store.Record, error) {
	return ExecuteWithCrashDir(ctx, spec, "")
}

// ExecuteWithCrashDir is Execute that also persists a crash bundle
// under crashDir (recyclesim.Options.CrashDir) when a detailed cell
// panics or livelocks.  The directory is where the caller keeps its
// diagnostics, not part of the cell's identity, so it is not a Spec
// field.
func ExecuteWithCrashDir(ctx context.Context, spec Spec, crashDir string) (*store.Record, error) {
	// The shared built programs, so no cell rebuilds its mix; Workloads
	// still names them in fingerprints and crash bundles.
	progs, err := builtins.programs(spec.Workloads)
	if err != nil {
		return nil, err
	}
	o := recyclesim.Options{
		Machine:   spec.Machine,
		Features:  spec.Features,
		Workloads: spec.Workloads,
		Programs:  progs,
		MaxInsts:  spec.budget(),
		CrashDir:  crashDir,
	}
	if spec.Sampling != nil {
		// Cell-level Workers is pinned to 1 for memory, not for the
		// result, which is byte-identical at every worker count: the
		// sweep above already runs cells in parallel, and each interval
		// worker holds seedsPerWorker = 2 seed slots with a warm-model
		// buffer of about 1.7 MB each, so GOMAXPROCS workers per cell
		// would multiply a sweep's memory.
		s := *spec.Sampling
		s.Workers = 1
		o.Sampling = &s
		res, err := recyclesim.RunSampledContext(ctx, o)
		if err != nil {
			return nil, err
		}
		return &store.Record{Sampled: res}, nil
	}
	// Fresh telemetry per attempt, so a partially accumulated failed
	// attempt never leaks into the stored record.
	o.Telemetry = &obs.Metrics{Hists: true}
	res, err := recyclesim.RunContext(ctx, o)
	if err != nil {
		return nil, err
	}
	return &store.Record{Stats: res, Metrics: o.Telemetry}, nil
}
