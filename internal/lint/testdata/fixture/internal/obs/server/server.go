// Package server mirrors the real module's live-observability server:
// it sits under internal/ but on the lint.NonSimPackages opt-out list,
// so determinism's per-file half skips it by design.  Its reachable
// half must still flag every impurity below, because core.Run reaches
// this package — exactly the hole the call-graph walk exists to close
// (which is why each finding below carries the chain from core.Run,
// and why a new impurity here is only caught that way).
package server

import (
	"math/rand"
	"os"
	"time"
)

// Stamp leaks ambient process state into whatever calls it.
func Stamp(m map[string]int) int {
	t := int(time.Now().Unix())  // want:determinism
	if os.Getenv("SEED") != "" { // want:determinism
		t += rand.Int() // want:determinism
	}
	go func() { _ = t }() // want:determinism
	total := 0
	for _, v := range m { // want:determinism
		total += v
	}
	return total + t
}
