package sweep

import (
	"fmt"
	"sync"

	"recyclesim/internal/obs"
	"recyclesim/internal/stats"
)

// Aggregate is the running total over a sweep's finished cells behind
// a live /metrics endpoint: workers add cells concurrently, and each
// Add returns an immutable snapshot for the observability server to
// publish.  Name labels the snapshots ("<Name> (<n> cells)").
type Aggregate struct {
	Name string

	mu    sync.Mutex
	stats stats.Sim
	tel   obs.Metrics
	cells int
}

// Add accumulates one cell and returns a snapshot of the totals that
// shares no memory with the aggregate.
func (a *Aggregate) Add(s *stats.Sim, m *obs.Metrics) *obs.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Add(s)
	a.tel.Add(m)
	a.cells++
	st := a.stats
	st.PerProgram = append([]uint64(nil), a.stats.PerProgram...)
	tel := a.tel
	return &obs.Snapshot{
		Name:    fmt.Sprintf("%s (%d cells)", a.Name, a.cells),
		Stats:   &st,
		Metrics: &tel,
	}
}
