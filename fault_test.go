package recyclesim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/obs"
)

// slotTotal sums a run's stall attribution; non-zero iff telemetry
// was accumulated.
func slotTotal(tel *Telemetry) uint64 {
	var n uint64
	for _, v := range tel.SlotCycles {
		n += v
	}
	return n
}

// TestFingerprintFigure5 checks that Figure 5's nine alternate-path
// policies give nine distinct fingerprints, so two of its cells failing
// at the same cycle cannot share a crash bundle, and that a preset's
// own policy keeps the figure-legend name.
func TestFingerprintFigure5(t *testing.T) {
	opts := func(f Features) Options {
		return Options{Machine: config.Big216(), Features: f, Workloads: []string{"go"}, MaxInsts: 1000}
	}
	seen := map[string]bool{}
	for _, p := range []config.AltPolicy{config.AltNoStop, config.AltStop, config.AltFetch} {
		for _, n := range []int{8, 16, 32} {
			f := config.RECRSRU
			f.AltPolicy, f.AltLimit = p, n
			fp := fingerprint(opts(f))
			if seen[fp] {
				t.Errorf("two Figure 5 cells fingerprinted %q", fp)
			}
			seen[fp] = true
		}
	}
	if got, want := fingerprint(opts(config.RECRSRU)), "big.2.16/REC/RS/RU/go/max1000"; got != want {
		t.Errorf("preset fingerprint %q, want %q", got, want)
	}
}

func healthyOption(insts uint64) Options {
	return Options{
		Machine:  MachineByName("big.2.16"),
		Features: RECRSRU,
		Workloads: []string{
			"compress",
		},
		MaxInsts: insts,
	}
}

// TestBatchContainsPoisonedCells is the containment acceptance test: a
// batch run concurrently on a worker pool with one panicking cell, one
// livelocked cell, and one canceled cell must still complete every
// healthy cell, report one typed error per poisoned cell at its input
// index, and persist a crash bundle carrying the flight-recorder dump
// for the panic.
func TestBatchContainsPoisonedCells(t *testing.T) {
	crashDir := t.TempDir()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	livelocked := RECRSRU
	livelocked.WatchdogCycles = 1 // fires on the front-end fill gap

	commits := 0
	panicCell := healthyOption(20_000)
	panicCell.CommitHook = func(CommitInfo) {
		commits++
		if commits == 500 {
			panic("injected fault: poisoned commit hook")
		}
	}
	panicCell.CrashDir = crashDir
	panicCell.FlightRecorder = NewFlightRecorder(128)

	livelockCell := healthyOption(20_000)
	livelockCell.Features = livelocked
	livelockCell.CrashDir = crashDir

	cancelCell := healthyOption(20_000)

	opts := []Options{
		healthyOption(20_000), // 0
		panicCell,             // 1
		healthyOption(20_000), // 2
		livelockCell,          // 3
		cancelCell,            // 4
		healthyOption(20_000), // 5
	}
	ctxs := make([]context.Context, len(opts))
	ctxs[4] = canceled
	results, errs := runPool(opts, ctxs, 3)

	// Healthy cells: complete results, untouched by their siblings.
	for _, i := range []int{0, 2, 5} {
		if errs[i] != nil {
			t.Errorf("healthy cell %d failed: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("healthy cell %d lost its result", i)
		}
		if results[i].Committed < 20_000 {
			t.Errorf("healthy cell %d committed %d, want >= 20000", i, results[i].Committed)
		}
	}

	// Poisoned cells: typed errors at their own indices.
	wantKinds := map[int]error{1: ErrPanic, 3: ErrLivelock, 4: ErrCanceled}
	for idx, kind := range wantKinds {
		if !errors.Is(errs[idx], kind) {
			t.Errorf("cell %d error %v, want kind %v", idx, errs[idx], kind)
		}
		var se *SimError
		if !errors.As(errs[idx], &se) {
			t.Errorf("cell %d error is not a *SimError: %v", idx, errs[idx])
		}
	}

	// The panic cell wrote a crash bundle with the flight-recorder dump.
	var se *SimError
	if !errors.As(errs[1], &se) {
		t.Fatal("panic cell produced no *SimError")
	}
	if se.FlightDump == "" {
		t.Error("panic SimError has no flight-recorder dump")
	}
	if se.BundlePath == "" {
		t.Fatal("panic cell wrote no crash bundle")
	}
	bundle, rerr := os.ReadFile(se.BundlePath)
	if rerr != nil {
		t.Fatalf("crash bundle unreadable: %v", rerr)
	}
	for _, want := range []string{"injected fault", "flight recorder", "machine:", "stack:"} {
		if !strings.Contains(string(bundle), want) {
			t.Errorf("crash bundle missing %q", want)
		}
	}
}

// TestRunPanicContained: a panic in a user hook surfaces as a typed
// *SimError (kind ErrPanic) with the panic value and stack captured,
// and the Result is withheld because mid-cycle state is unreliable.
func TestRunPanicContained(t *testing.T) {
	o := healthyOption(20_000)
	o.FlightRecorder = NewFlightRecorder(64)
	n := 0
	o.CommitHook = func(CommitInfo) {
		n++
		if n == 100 {
			panic("hook exploded")
		}
	}
	tel := &Telemetry{}
	o.Telemetry = tel
	res, err := Run(o)
	if res != nil {
		t.Error("panicked run returned a result")
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not *SimError", err)
	}
	if se.PanicValue == nil || !strings.Contains(fmt.Sprint(se.PanicValue), "hook exploded") {
		t.Errorf("panic value %v", se.PanicValue)
	}
	if se.Stack == "" || !strings.Contains(se.Stack, "goroutine") {
		t.Error("panic stack missing")
	}
	if se.Cycle == 0 || se.Committed == 0 {
		t.Errorf("failure not located: cycle %d committed %d", se.Cycle, se.Committed)
	}
	if se.FlightDump == "" {
		t.Error("flight-recorder dump missing")
	}
	if !strings.Contains(se.Fingerprint, "big.2.16") {
		t.Errorf("fingerprint %q", se.Fingerprint)
	}
	if slotTotal(tel) != 0 {
		t.Error("telemetry accumulated from a mid-cycle panic")
	}
}

// TestLivelockSurfacesThroughFacade: the core watchdog's diagnosis
// arrives as ErrLivelock with the machine dump, the partial result
// survives, and a crash bundle is written.
func TestLivelockSurfacesThroughFacade(t *testing.T) {
	o := healthyOption(20_000)
	o.Features.WatchdogCycles = 1
	o.CrashDir = t.TempDir()
	res, err := Run(o)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	if res == nil {
		t.Error("livelocked run withheld its partial result")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatal("not a *SimError")
	}
	var ll *core.LivelockError
	if !errors.As(err, &ll) {
		t.Fatal("core.LivelockError not reachable through the facade error")
	}
	if se.Dump == "" || !strings.Contains(se.Dump, "machine state at cycle") {
		t.Errorf("livelock dump missing: %q", se.Dump)
	}
	if se.Detail == "" || !strings.Contains(se.Detail, "dominant stall cause") {
		t.Errorf("livelock detail missing: %q", se.Detail)
	}
	if se.BundlePath == "" {
		t.Fatal("no crash bundle for livelock")
	}
	if _, err := os.Stat(se.BundlePath); err != nil {
		t.Fatalf("crash bundle missing on disk: %v", err)
	}
}

// TestCancelReturnsPartialResult: canceling mid-run stops at the next
// poll with the statistics so far and both the package sentinel and
// the stdlib context error matchable.
func TestCancelReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := healthyOption(100_000)
	n := uint64(0)
	o.CommitHook = func(CommitInfo) {
		n++
		if n == 1_000 {
			cancel()
		}
	}
	tel := &Telemetry{}
	o.Telemetry = tel
	res, err := RunContext(ctx, o)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("context.Canceled not reachable through the facade error")
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Committed < 1_000 || res.Committed >= 100_000 {
		t.Errorf("partial result committed %d", res.Committed)
	}
	if slotTotal(tel) == 0 {
		t.Error("telemetry not accumulated from a clean cancel")
	}
}

// TestDeadlineClassified: an expired deadline maps to ErrDeadline, not
// ErrCanceled.
func TestDeadlineClassified(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := RunContext(ctx, healthyOption(50_000))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("context.DeadlineExceeded not reachable through the facade error")
	}
}

// TestWatchdogByteIdentity is the determinism witness for the fault
// layer: the commit stream, statistics, and telemetry of a healthy run
// must be byte-identical with the watchdog at its default, with an
// explicit window, with the watchdog disabled, and with an uncancelled
// context attached at an aggressive poll cadence.
func TestWatchdogByteIdentity(t *testing.T) {
	witness := func(mutate func(*Options) context.Context) (string, string, string) {
		var commits strings.Builder
		tel := &Telemetry{}
		o := healthyOption(20_000)
		o.CommitHook = func(ci CommitInfo) {
			fmt.Fprintf(&commits, "p%d c%d pc=%x %v res=%x addr=%x taken=%t reused=%t\n",
				ci.Program, ci.Ctx, ci.PC, ci.Inst, ci.Result, ci.Addr, ci.Taken, ci.Reused)
		}
		o.Telemetry = tel
		res, err := RunContext(mutate(&o), o)
		if err != nil {
			t.Fatalf("healthy run failed: %v", err)
		}
		return commits.String(), fmt.Sprintf("%+v", *res), fmt.Sprintf("%+v", *tel)
	}

	baseC, baseS, baseT := witness(func(*Options) context.Context { return context.Background() })
	if baseC == "" {
		t.Fatal("no commits recorded")
	}
	variants := map[string]func(*Options) context.Context{
		"explicit window": func(o *Options) context.Context {
			o.Features.WatchdogCycles = 10_000
			return context.Background()
		},
		"watchdog off": func(o *Options) context.Context {
			o.Features.WatchdogCycles = config.WatchdogOff
			return context.Background()
		},
		"uncancelled context": func(o *Options) context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return ctx
		},
	}
	for name, mutate := range variants {
		c, s, tel := witness(mutate)
		if c != baseC {
			t.Errorf("%s: commit stream diverged", name)
		}
		if s != baseS {
			t.Errorf("%s: stats diverged:\n base: %s\n  got: %s", name, baseS, s)
		}
		if tel != baseT {
			t.Errorf("%s: telemetry diverged", name)
		}
	}
}

// TestInvariantPanicSurfacesAsSimError: a runtime invariant fire —
// injected by corrupting the telemetry conservation identity through
// the test-only core hook — must surface as a contained *SimError of
// kind ErrPanic whose panic value carries the invariant report and
// whose flight-recorder dump is populated.
func TestInvariantPanicSurfacesAsSimError(t *testing.T) {
	o := healthyOption(20_000)
	o.Features.InvariantEvery = 64
	o.FlightRecorder = NewFlightRecorder(128)
	o.CrashDir = t.TempDir()
	o.hookCore = func(c *core.Core) {
		// Break the slot-cycle conservation identity; the checker's
		// telemetry sweep must catch it at the next period.
		c.Obs.SlotCycles[obs.CauseIdle] += 999
	}
	res, err := Run(o)
	if res != nil {
		t.Error("corrupted run returned a result")
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatal("not a *SimError")
	}
	msg := fmt.Sprint(se.PanicValue)
	if !strings.Contains(msg, "invariant check failed") {
		t.Errorf("panic value %q does not carry the invariant report", msg)
	}
	if se.FlightDump == "" {
		t.Error("invariant fire captured no flight-recorder dump")
	}
	if se.BundlePath == "" {
		t.Error("invariant fire wrote no crash bundle")
	}
}

// TestCrashBundleOneFlightRecorderSection: the core's machine dump
// already carries the flight recorder for a livelock and an invariant
// fire, and a commit-hook panic carries none, so every crash bundle
// holds the flight-recorder section exactly once.
func TestCrashBundleOneFlightRecorderSection(t *testing.T) {
	cases := map[string]func(*Options){
		"livelock": func(o *Options) {
			o.Workloads = []string{"gcc"}
			o.Features.WatchdogCycles = 5
		},
		"invariant panic": func(o *Options) {
			o.Features.InvariantEvery = 64
			o.hookCore = func(c *core.Core) { c.Obs.SlotCycles[obs.CauseIdle] += 999 }
		},
		"commit-hook panic": func(o *Options) {
			n := 0
			o.CommitHook = func(CommitInfo) {
				if n++; n == 100 {
					panic("hook exploded")
				}
			}
		},
	}
	for name, mutate := range cases {
		o := healthyOption(20_000)
		o.FlightRecorder = NewFlightRecorder(64)
		o.CrashDir = t.TempDir()
		mutate(&o)
		_, err := Run(o)
		var se *SimError
		if !errors.As(err, &se) || se.BundlePath == "" {
			t.Fatalf("%s: no crash bundle (err %v)", name, err)
		}
		bundle, rerr := os.ReadFile(se.BundlePath)
		if rerr != nil {
			t.Fatalf("%s: %v", name, rerr)
		}
		if n := strings.Count(string(bundle), "flight recorder (last "); n != 1 {
			t.Errorf("%s: crash bundle holds %d flight-recorder sections, want 1", name, n)
		}
	}
}
