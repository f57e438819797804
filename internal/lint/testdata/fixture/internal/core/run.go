package core

import (
	"time"

	"fixture/internal/obs/server"
	"fixture/internal/sweep"
)

// hooks holds a function-typed field: calls through it are the call
// graph's soundness boundary.
type hooks struct{ now func() int64 }

// runHooks binds wallClock in a package-level initializer, outside any
// function, so no call-graph edge reaches wallClock.
var runHooks = hooks{now: wallClock}

// wallClock is reached from Run only through runHooks.now.  The
// reachable half of determinism misses it; the per-file half, which
// sees every function of a simulator package, is what catches it.
func wallClock() int64 { return time.Now().UnixNano() } // want:determinism

// Run is the fixture's simulation entry point (see lint.SimRoots):
// determinism walks everything reachable from here.  The sweep fan-out
// sits on the concurrency allowlist and must not be flagged; the
// server call reaches the opted-out package whose impurity must be —
// every finding it causes is marked in server.go, not here.
func (c *Core) Run(n int) int {
	c.cycle += uint64(runHooks.now() & 0)
	out := make([]int, n)
	sweep.Fan(n, func(i int) { out[i] = i })
	total := 0
	for _, v := range out {
		total += v
	}
	return total + server.Stamp(map[string]int{"a": 1})
}
