package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"recyclesim/internal/obs/trace"
	"recyclesim/internal/store"
)

// TestWriteMetrics pins the svc_fleet_* text: every series' name and
// order, the two gauges without _total, and the counts one worker's
// life leaves (register, lease, complete, deregister with a cell still
// queued, which then computes locally).
func TestWriteMetrics(t *testing.T) {
	d := newTestDispatcher(nil, func(context.Context, Spec) (*store.Record, error) { return testRecord(), nil })
	ctx := context.Background()
	id := d.RegisterWorker("metrics", 1)
	computed := make(chan error, 2)
	go func() { _, err := d.Compute(ctx, testSpec("a"), trace.Ctx{}); computed <- err }()
	g, err := d.Lease(ctx, id.Worker, 5*time.Second)
	if err != nil || g == nil {
		t.Fatalf("Lease = %v, %v", g, err)
	}
	if stale := d.Complete(id.Worker, g.Lease, testRecord(), ""); stale {
		t.Fatal("completion of a live lease was stale")
	}
	if err := <-computed; err != nil {
		t.Fatal(err)
	}
	go func() { _, err := d.Compute(ctx, testSpec("b"), trace.Ctx{}); computed <- err }()
	for deadline := time.Now().Add(5 * time.Second); d.Counters().QueueDepth == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second cell never queued")
		}
		time.Sleep(time.Millisecond)
	}
	text := func() string {
		var b strings.Builder
		d.WriteMetrics(&b)
		return b.String()
	}
	const queued = `# fleet (distributed execution) metrics
svc_fleet_workers 1
svc_fleet_queue_depth 1
svc_fleet_registers_total 1
svc_fleet_departs_total 0
svc_fleet_workers_lost_total 0
svc_fleet_leases_granted_total 1
svc_fleet_leases_expired_total 0
svc_fleet_requeues_total 0
svc_fleet_stale_results_total 0
svc_fleet_remote_computes_total 1
svc_fleet_remote_errors_total 0
svc_fleet_local_computes_total 0
svc_fleet_local_fallbacks_total 0
`
	if got := text(); got != queued {
		t.Errorf("metrics with a cell queued:\n%s\nwant:\n%s", got, queued)
	}
	if err := d.Deregister(id.Worker); err != nil {
		t.Fatal(err)
	}
	if err := <-computed; err != nil {
		t.Fatal(err)
	}
	departed := strings.NewReplacer(
		"svc_fleet_workers 1", "svc_fleet_workers 0",
		"svc_fleet_queue_depth 1", "svc_fleet_queue_depth 0",
		"departs_total 0", "departs_total 1",
		"local_computes_total 0", "local_computes_total 1",
		"local_fallbacks_total 0", "local_fallbacks_total 1",
	).Replace(queued)
	if got := text(); got != departed {
		t.Errorf("metrics after the worker departed:\n%s\nwant:\n%s", got, departed)
	}
}
