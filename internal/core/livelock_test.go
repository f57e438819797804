package core

import (
	"errors"
	"strings"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

func watchdogCore(t *testing.T, feat config.Features) *Core {
	t.Helper()
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newLoaded(config.Big216(), feat, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWatchdogFiresOnNoProgress sets a one-cycle forward-progress
// window so the front-end fill latency alone trips the watchdog, and
// checks the structured diagnosis: a typed *LivelockError carrying the
// fire cycle, the silent window, and a machine dump that includes the
// flight-recorder tail when a ring is attached.
func TestWatchdogFiresOnNoProgress(t *testing.T) {
	feat := config.RECRSRU
	feat.WatchdogCycles = 1
	c := watchdogCore(t, feat)
	c.SetRing(obs.NewRing(64))
	s, err := c.Run(10_000, 1_000_000)
	if err == nil {
		t.Fatal("watchdog with a 1-cycle window did not fire")
	}
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("error is %T, want *LivelockError: %v", err, err)
	}
	if ll.Window < 1 {
		t.Errorf("window %d, want >= 1", ll.Window)
	}
	if ll.Cycle == 0 || ll.Cycle != c.CycleCount() {
		t.Errorf("fire cycle %d does not match core cycle %d", ll.Cycle, c.CycleCount())
	}
	if ll.Committed != c.Stats.Committed {
		t.Errorf("error committed %d, stats %d", ll.Committed, c.Stats.Committed)
	}
	if ll.Dump == "" || !strings.Contains(ll.Dump, "machine state at cycle") {
		t.Errorf("missing machine dump: %q", ll.Dump)
	}
	if !strings.Contains(err.Error(), "livelock") {
		t.Errorf("error text %q does not say livelock", err.Error())
	}
	if s == nil {
		t.Error("watchdog fire must still return the partial stats")
	}
}

// TestWatchdogCountsCommitGapsNotCycles: the window restarts on every
// commit, so a window far smaller than the run length must not fire on
// a healthy workload that commits steadily.
func TestWatchdogCountsCommitGapsNotCycles(t *testing.T) {
	feat := config.RECRSRU
	feat.WatchdogCycles = 2_000 // far below run length, far above any real commit gap
	c := watchdogCore(t, feat)
	s, err := c.Run(20_000, 900_000)
	if err != nil {
		t.Fatalf("watchdog misfired on a healthy run: %v", err)
	}
	if s.Committed < 20_000 {
		t.Fatalf("committed %d, want 20000", s.Committed)
	}
}

// TestWatchdogOffSentinel: config.WatchdogOff disables the check even
// where a small window would have fired (the startup fill gap).
func TestWatchdogOffSentinel(t *testing.T) {
	feat := config.RECRSRU
	feat.WatchdogCycles = config.WatchdogOff
	c := watchdogCore(t, feat)
	if _, err := c.Run(5_000, 300_000); err != nil {
		t.Fatalf("run with watchdog disabled returned %v", err)
	}
}

// TestPollStopsRun: an installed poll is called on the fixed cycle
// cadence, its first non-nil error stops the run at exactly that
// cycle, and the partial statistics survive.
func TestPollStopsRun(t *testing.T) {
	errStop := errors.New("stop requested")
	c := watchdogCore(t, config.RECRSRU)
	calls := 0
	c.SetPoll(func() error {
		calls++
		if calls == 3 {
			return errStop
		}
		return nil
	})
	s, err := c.Run(1_000_000, 10_000_000)
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want %v", err, errStop)
	}
	if calls != 3 {
		t.Errorf("poll called %d times, want 3", calls)
	}
	if c.CycleCount() != 3*pollEvery {
		t.Errorf("stopped at cycle %d, want %d (poll cadence is simulated cycles)", c.CycleCount(), 3*pollEvery)
	}
	if s == nil || s.Committed == 0 {
		t.Error("partial stats missing after poll stop")
	}
}

// TestPollDefaultCadence: an unfired poll is called once every
// pollEvery cycles over a whole run, neither every cycle nor never.
func TestPollDefaultCadence(t *testing.T) {
	c := watchdogCore(t, config.RECRSRU)
	calls := 0
	c.SetPoll(func() error { calls++; return nil })
	if _, err := c.Run(5_000, 300_000); err != nil {
		t.Fatal(err)
	}
	want := int(c.CycleCount() / pollEvery)
	if calls != want {
		t.Errorf("poll called %d times over %d cycles, want %d (every %d)",
			calls, c.CycleCount(), want, pollEvery)
	}
}

// TestDominantStallDeterministic: the watchdog diagnosis names a stall
// cause from the attribution table, never a busy cause, and repeated
// fires on the same configuration agree.
func TestDominantStallDeterministic(t *testing.T) {
	run := func() obs.Cause {
		feat := config.RECRSRU
		feat.WatchdogCycles = 1
		c := watchdogCore(t, feat)
		_, err := c.Run(10_000, 1_000_000)
		var ll *LivelockError
		if !errors.As(err, &ll) {
			t.Fatalf("no livelock: %v", err)
		}
		return ll.Dominant
	}
	first := run()
	if first == obs.CauseBusyFetch || first == obs.CauseRecycle {
		t.Errorf("dominant stall %v is a busy cause", first)
	}
	if again := run(); again != first {
		t.Errorf("dominant stall not deterministic: %v vs %v", first, again)
	}
}
