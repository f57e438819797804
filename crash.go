package recyclesim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// writeCrashBundle persists a SimError's full captured state as a
// plain-text post-mortem under dir, returning the file path.  The name
// derives from the configuration fingerprint and failure cycle, so a
// deterministic rerun of the same failure overwrites its own bundle
// instead of accumulating duplicates.
func writeCrashBundle(dir string, o Options, se *SimError, res *Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-c%d.crash.txt", sanitizeName(se.Fingerprint), se.Cycle))

	var b strings.Builder
	fmt.Fprintf(&b, "recyclesim crash bundle\n=======================\n")
	// An invariant fire's panic value spans many lines; the panic
	// section below holds all of it, so the header keeps the first.
	head, _, _ := strings.Cut(se.Error(), "\n")
	fmt.Fprintf(&b, "error: %s\n", head)
	fmt.Fprintf(&b, "kind: %s\n", se.Kind.Error())
	fmt.Fprintf(&b, "cycle: %d\ncommitted: %d\n", se.Cycle, se.Committed)
	fmt.Fprintf(&b, "fingerprint: %s\n\n", se.Fingerprint)
	fmt.Fprintf(&b, "machine: %+v\n", o.Machine)
	fmt.Fprintf(&b, "features: %+v\n", o.Features)
	fmt.Fprintf(&b, "workloads: %v  programs: %d  maxinsts: %d\n\n",
		o.Workloads, len(o.Programs), o.MaxInsts)
	if res != nil {
		fmt.Fprintf(&b, "partial stats: %+v\n\n", *res)
	}
	if se.PanicValue != nil {
		fmt.Fprintf(&b, "panic: %v\n\nstack:\n%s\n", se.PanicValue, se.Stack)
	}
	if se.Dump != "" {
		fmt.Fprintf(&b, "%s\n", se.Dump)
	}
	// The core's machine dump — a livelock's Dump, an invariant
	// panic's value — already ends with the flight-recorder section,
	// rendered by the same obs.Ring.Dump at the same cycle.
	if se.FlightDump != "" && !strings.Contains(b.String(), se.FlightDump) {
		fmt.Fprintf(&b, "%s\n", se.FlightDump)
	}
	if se.PipeTail != "" {
		fmt.Fprintf(&b, "%s\n", se.PipeTail)
	}

	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizeName maps a fingerprint onto the filename-safe alphabet.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
