package sweep

import (
	"testing"

	"recyclesim/internal/obs"
	"recyclesim/internal/stats"
)

// TestAggregateSnapshotsAreImmutable: each Add returns the running
// totals under the aggregate's name, and a snapshot already handed out
// never changes when later cells arrive.
func TestAggregateSnapshotsAreImmutable(t *testing.T) {
	a := &Aggregate{Name: "test aggregate"}
	m := &obs.Metrics{}
	m.SlotCycles[obs.CauseIdle] = 3
	first := a.Add(&stats.Sim{Committed: 10, PerProgram: []uint64{10}}, m)
	second := a.Add(&stats.Sim{Committed: 5, PerProgram: []uint64{5}}, m)
	if first.Name != "test aggregate (1 cells)" || second.Name != "test aggregate (2 cells)" {
		t.Errorf("names %q, %q", first.Name, second.Name)
	}
	if first.Stats.Committed != 10 || first.Stats.PerProgram[0] != 10 || first.Metrics.SlotCycles[obs.CauseIdle] != 3 {
		t.Errorf("first snapshot changed after a later Add: %+v", first.Stats)
	}
	if second.Stats.Committed != 15 || second.Stats.PerProgram[0] != 15 || second.Metrics.SlotCycles[obs.CauseIdle] != 6 {
		t.Errorf("second snapshot totals %+v", second.Stats)
	}
}
