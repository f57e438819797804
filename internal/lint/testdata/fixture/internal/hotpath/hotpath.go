// Package hotpath is the hotalloc fixture: Step carries the
// //recycle:hotpath annotation, so Step and everything it transitively
// calls must be free of allocating constructs.  dump carries
// //recycle:coldpath and is exempt despite being reachable, and the
// nil-guarded block plays the optional-telemetry idiom, which the
// analyzer treats as off the steady-state path.
package hotpath

import (
	"fmt"
	"time"
)

// sink models a consumer with an interface parameter (boxing target).
func sink(v interface{}) { _ = v }

type point struct{ x, y int }

type buf struct {
	recs  []int
	slots [][]int
	mask  int
	emit  func(int)
	p     *point
}

// release is clean; only its defer-in-loop call site is a finding.
func release(int) {}

// helper is never annotated itself but inherits hotness from Step.
func helper(a, b string) string {
	return a + b // want:hotalloc
}

// each is the zero-alloc scan-callback idiom: the literal its callers
// pass stays on the stack, so neither side is a finding.
func each(xs []string, f func(string)) {
	for _, x := range xs {
		f(x)
	}
}

//recycle:coldpath
func dump(xs []int) {
	fmt.Println(xs) // reachable from Step but coldpath-stopped: clean
}

//recycle:hotpath
func (b *buf) Step(names []string, dbg func(string)) int {
	if len(names) == 0 {
		dump(b.recs)                                           // coldpath callee: clean
		panic(fmt.Sprintf("empty step, %d recs", len(b.recs))) // panic args are off-budget: clean
	}
	b.recs = append(b.recs, 1) // pooled self-append: clean
	b.recs = append(b.recs[:0], 2)
	// A queue popped by reslicing its front loses that capacity, so the
	// self-append above reallocates once per capacity's worth of pops.
	b.recs = b.recs[1:]             // want:hotalloc
	b.recs = b.recs[:len(b.recs)-1] // back reslice keeps the capacity: clean
	rest := b.recs[1:]              // a view into the buffer, not a pop: clean
	// Regression for the event wheel's ring-slot pooling: a self-append
	// through an index built from a binary expression is still a
	// self-append.
	due := len(names)
	b.slots[due&b.mask] = append(b.slots[due&b.mask], 3)
	other := append(names, "x")    // want:hotalloc
	b.p = &point{x: 1}             // want:hotalloc
	m := map[int]int{}             // want:hotalloc
	sink(len(m))                   // want:hotalloc
	sink(b.p)                      // pointer argument boxes for free: clean
	fmt.Println(len(other))        // want:hotalloc
	b.emit = func(v int) { _ = v } // want:hotalloc
	each(names, func(s string) { _ = s })
	if dbg != nil {
		dbg("step " + names[0]) // guarded telemetry: clean
	}
	for i := 0; i < len(names); i++ {
		defer release(i) // want:hotalloc
	}
	//simlint:ignore determinism hotalloc -- multi-rule suppression fixture: one directive, two analyzers
	legend := fmt.Sprint(time.Now()) // checked:determinism // checked:hotalloc
	_ = legend
	return len(helper(names[0], "suffix")) + len(b.recs) + len(rest)
}
