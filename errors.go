package recyclesim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/obs/pipetrace"
)

// Sentinel errors classifying every way a simulation can fail after it
// has been configured.  Match them with errors.Is; the concrete error
// returned is always a *SimError wrapping one of these (plus the
// underlying cause, so errors.Is(err, context.Canceled) and
// errors.As(err, &livelock) also work).
var (
	// ErrCanceled: the run's context was canceled; the returned Result
	// holds the statistics accumulated up to the poll that noticed.
	ErrCanceled = errors.New("recyclesim: run canceled")
	// ErrDeadline: the run's context deadline expired mid-simulation.
	ErrDeadline = errors.New("recyclesim: run deadline exceeded")
	// ErrLivelock: the forward-progress watchdog saw a full window of
	// cycles with no commit while a program was still live.
	ErrLivelock = errors.New("recyclesim: livelock detected")
	// ErrPanic: the simulator (or a user hook, or the invariant
	// checker) panicked; the panic was contained to this run.
	ErrPanic = errors.New("recyclesim: simulator panic")
)

// SimError is the typed failure report of one simulation run.  It
// classifies the failure (Kind), locates it (Cycle, Committed,
// Fingerprint), and carries enough captured state — machine dump,
// flight-recorder tail, pipetrace tail, panic stack — to debug the
// failure from the error alone, without rerunning.
type SimError struct {
	// Kind is one of the package sentinels (ErrCanceled, ErrDeadline,
	// ErrLivelock, ErrPanic).
	Kind error
	// Err is the underlying cause: the context's error, the core's
	// *LivelockError, or nil for a panic (see PanicValue).
	Err error

	// Cycle and Committed locate the failure in simulated time.
	Cycle     uint64
	Committed uint64
	// Fingerprint identifies the configuration:
	// machine/features/workloads/maxinsts.
	Fingerprint string
	// Detail is a one-line elaboration (watchdog window and dominant
	// stall cause, for example).
	Detail string

	// Dump is the per-context machine state at the failure, when the
	// failing layer could still produce one (livelock fires always can;
	// panics carry whatever the panic message included).
	Dump string
	// FlightDump is the flight recorder's retained event tail, when a
	// recorder was attached to the run.
	FlightDump string
	// PipeTail is the tail of the pipetrace record stream, when a
	// tracer was attached.
	PipeTail string

	// PanicValue and Stack are set for ErrPanic.
	PanicValue any
	Stack      string

	// BundlePath is the crash bundle written under Options.CrashDir,
	// when one was requested and the write succeeded.
	BundlePath string
}

// Error implements error.  The full captured state stays in the struct
// fields (and the crash bundle); the string is a one-liner.
func (e *SimError) Error() string {
	var b strings.Builder
	b.WriteString(e.Kind.Error())
	fmt.Fprintf(&b, " at cycle %d (%d committed; %s)", e.Cycle, e.Committed, e.Fingerprint)
	if e.Detail != "" {
		fmt.Fprintf(&b, ": %s", e.Detail)
	}
	if e.PanicValue != nil {
		fmt.Fprintf(&b, ": panic: %v", e.PanicValue)
	}
	if e.BundlePath != "" {
		fmt.Fprintf(&b, " (crash bundle: %s)", e.BundlePath)
	}
	return b.String()
}

// Unwrap exposes both the classifying sentinel and the underlying
// cause, so errors.Is(err, ErrLivelock), errors.Is(err,
// context.Canceled) and errors.As(err, &(*core.LivelockError)) all
// resolve through the one returned error.
func (e *SimError) Unwrap() []error {
	if e.Err != nil {
		return []error{e.Kind, e.Err}
	}
	return []error{e.Kind}
}

// fingerprint renders the configuration identity of a detailed run,
// used in error messages and crash bundle names.  It depends only on
// the option fields that determine the simulation's outcome; only
// RunContext builds a SimError, and it ignores Sampling.
func fingerprint(o Options) string {
	names := strings.Join(o.Workloads, "+")
	if len(o.Workloads) == 0 {
		names = fmt.Sprintf("%dprogs", len(o.Programs))
	}
	return fmt.Sprintf("%s/%s/%s/max%d", o.Machine.Name, config.FullFeatureName(o.Features), names, o.MaxInsts)
}

// simError builds the typed failure report for a run that stopped with
// runErr or panicked with panicVal, capturing the observability tails
// from the live core.
func simError(c *core.Core, o Options, runErr error, panicVal any, stack []byte) *SimError {
	se := &SimError{
		Cycle:       c.CycleCount(),
		Committed:   c.Stats.Committed,
		Fingerprint: fingerprint(o),
		FlightDump:  c.FlightRing().Dump(),
		PipeTail:    pipeTail(o.PipeTrace, 16),
	}
	switch {
	case panicVal != nil:
		se.Kind = ErrPanic
		se.PanicValue = panicVal
		se.Stack = string(stack)
	case errors.Is(runErr, context.DeadlineExceeded):
		se.Kind, se.Err = ErrDeadline, runErr
	case isLivelock(runErr):
		var ll *core.LivelockError
		errors.As(runErr, &ll)
		se.Kind, se.Err = ErrLivelock, runErr
		se.Dump = ll.Dump
		se.Detail = fmt.Sprintf("no commit for %d cycles, dominant stall cause %s", ll.Window, ll.Dominant)
	default:
		// context.Canceled, or whatever a custom context's Err returns.
		se.Kind, se.Err = ErrCanceled, runErr
	}
	return se
}

func isLivelock(err error) bool {
	var ll *core.LivelockError
	return errors.As(err, &ll)
}

// pipeTail renders the last n pipetrace records (nil-safe).
func pipeTail(p *pipetrace.Recorder, n int) string {
	if p == nil {
		return ""
	}
	recs := p.Records()
	if len(recs) == 0 {
		return ""
	}
	start := 0
	if len(recs) > n {
		start = len(recs) - n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pipetrace tail (last %d of %d records):\n", len(recs)-start, len(recs))
	for _, r := range recs[start:] {
		fmt.Fprintf(&b, "  %+v\n", r)
	}
	return b.String()
}
