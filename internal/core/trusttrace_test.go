package core

import (
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// The §3.4 "former method" (TrustTrace: recycled branches keep the
// trace's stored predictions) must remain architecturally correct —
// wrong trace directions are just mispredictions that recover through
// the normal squash path — and it must recycle at least as many
// instructions as the default stream-stopping method.
func TestTrustTraceCosim(t *testing.T) {
	feat := config.RECRSRU
	feat.TrustTrace = true
	for _, bench := range []string{"compress", "go", "perl"} {
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cosim(t, config.Big216(), feat, []*program.Program{p}, 25_000)
	}
}

func TestTrustTraceRecyclesMore(t *testing.T) {
	p, _ := workload.ByName("compress")
	run := func(trust bool) *Core {
		feat := config.RECRSRU
		feat.TrustTrace = trust
		c, err := newLoaded(config.Big216(), feat, []*program.Program{p})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(60_000, 3_000_000)
		return c
	}
	latter := run(false).Stats
	former := run(true).Stats
	if former.Recycled < latter.Recycled {
		t.Errorf("former method recycled %d < latter method %d",
			former.Recycled, latter.Recycled)
	}
}
