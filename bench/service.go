package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"recyclesim"
	"recyclesim/internal/fleet"
	"recyclesim/internal/jobs"
	"recyclesim/internal/program"
	"recyclesim/internal/store"
	"recyclesim/internal/workload"
)

const (
	svcWorkers = 1 // fleet workers, one cell each at a time
	svcInsts   = 60_000
	// panelCells is the cells of one job: one machine and feature set
	// with the eight 2-program or the eight 4-program mixes, one bar
	// group of Figures 4 and 6 (serviceCells keeps them adjacent).
	panelCells = 8
	// svcHotRounds is how often the hot phase requests every panel
	// again.  The count is fixed rather than timed: the server keeps
	// every finished job, so its memory grows with the number of jobs.
	svcHotRounds   = 10
	smokeCells     = 2 * panelCells
	smokeHotRounds = 2
	directCells    = 4 // cold records re-computed directly and compared
)

// runService is the service workload: an in-process recycled stack on
// one loopback listener.  One client runs the 24 panels of Figures 4
// and 6 as one job each, the way cmd/experiments -remote submits a
// figure's sweep: first cold, computed by a fleet worker, then again and
// again, served from the store.  A host probe follows every job, and
// the job's time is divided by its slowdown (host.go).
func runService(o *options, r *report) error {
	cells, rounds := serviceCells(svcInsts), svcHotRounds
	if o.smoke {
		cells, rounds = serviceCells(smokeInsts)[:smokeCells], smokeHotRounds
	}
	root, err := os.MkdirTemp(o.tmp, "bench-service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Set-up: open a store, start the server and dispatcher, and wait
	// for the worker to register.  The stack started last is the one
	// measured.
	var s *stack
	var setup, batch []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t, err := timed(func() (err error) {
			s, err = startStack(filepath.Join(root, fmt.Sprintf("setup%d", i)), nil)
			return err
		})
		if err != nil {
			return err
		}
		batch = append(batch, t)
		setup = r.host.scaleBatch(setup, &batch)
	}
	defer func() { s.close() }()
	r.set("setup_s", median(setup), "s")

	cosimCheck(o, r, recyclesim.MachineByName(simMachine), recyclesim.RECRSRU, mixPrograms(workload.Mix(1, 2)))

	cold, err := coldSweep(r, s, cells, o.seed, nil)
	if err != nil {
		return err
	}
	checkDirect(r, cells, cold.results)
	for i, res := range cold.results {
		r.digest.add(cellName(cells[i]), store.Record{Stats: res.Stats, Metrics: res.Metrics})
	}

	if o.trace {
		return tracedService(r, root, cells, o.seed, rounds, cold)
	}
	hot := hotPhase(r, s, cells, cold.results, o.seed, rounds, nil)
	r.set("sim_insts_per_s", float64(cold.insts)/cold.scaled, "insts/s")
	r.set("sweep_s", cold.scaled, "s")
	// As on the simulation workloads, each panel's time is its lower
	// quartile over the rounds, and cell_ms_p50 the median across panels.
	lat := make([]float64, len(hot.panelMS))
	for k, xs := range hot.panelMS {
		lat[k] = lowerQuartile(xs)
	}
	r.set("cell_ms_p50", median(lat), "ms")
	r.set("alloc_mb", (cold.alloc+hot.alloc)/(1<<20), "MB")
	return nil
}

// serviceCells is the cold sweep, the shape of the paper's Figures 4
// and 6: every machine, SMT, TME and REC/RS/RU, and the eight 2- and
// 4-program mixes, in a fixed order.
func serviceCells(insts uint64) []jobs.CellSpec {
	mixes := append(workload.Mixes(2), workload.Mixes(4)...)
	var cells []jobs.CellSpec
	for _, m := range recyclesim.MachineNames() {
		for _, f := range []string{"SMT", "TME", "REC/RS/RU"} {
			for _, mix := range mixes {
				cells = append(cells, jobs.CellSpec{
					Machine:   recyclesim.MachineByName(m),
					Features:  recyclesim.PresetByName(f),
					Workloads: mix,
					Insts:     insts,
				})
			}
		}
	}
	return cells
}

func cellName(c jobs.CellSpec) string { return fleetSpec(c).Name() }

func fleetSpec(c jobs.CellSpec) fleet.Spec {
	return fleet.Spec{Machine: c.Machine, Features: c.Features, Workloads: c.Workloads, Insts: c.Insts}
}

func mixPrograms(names []string) []*program.Program {
	progs, err := workload.MixPrograms(names)
	if err != nil {
		panic(err) // the names come from workload.Mix
	}
	return progs
}

// splitmix is the seeded sequence behind the service's request order.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = splitmix(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stack is one in-process recycled service: a store, the job server
// and fleet dispatcher behind one loopback listener, and svcWorkers
// fleet workers.
type stack struct {
	store  *store.Store
	disp   *fleet.Dispatcher
	srv    *http.Server
	url    string
	cancel context.CancelFunc // stops the server's simulations and reaper
	served chan struct{}

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	transports  []*http.Transport
}

// startStack boots a service over a store in dir.  compute, when
// non-nil, replaces the worker's fleet.Execute.
func startStack(dir string, compute func(context.Context, fleet.Spec) (*store.Record, error)) (*stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	disp := fleet.NewDispatcher(fleet.Config{})
	disp.StartReaper(ctx, 0)
	// Twice as many job-level cell slots as workers keeps a leased
	// cell queued behind each running one.
	js := jobs.NewServer(ctx, st, jobs.Config{Workers: 2 * svcWorkers, Fleet: disp})
	mux := http.NewServeMux()
	js.Register(mux)
	disp.Register(mux, "")
	// registered hears of every answered worker registration, so set-up
	// ends on the event rather than on a polling interval.
	registered := make(chan struct{}, svcWorkers)
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mux.ServeHTTP(w, req)
		if req.URL.Path == "/fleet/register" {
			select {
			case registered <- struct{}{}:
			default:
			}
		}
	})
	s := &stack{
		store: st, disp: disp, url: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: handler}, cancel: cancel, served: make(chan struct{}),
	}
	go func() {
		_ = s.srv.Serve(ln)
		close(s.served)
	}()
	wctx, stop := context.WithCancel(context.Background())
	s.stopWorkers = stop
	for i := 0; i < svcWorkers; i++ {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		s.transports = append(s.transports, tr)
		w := fleet.NewWorker(fleet.WorkerConfig{
			BaseURL:  s.url,
			Name:     fmt.Sprintf("bench-w%d", i+1),
			Parallel: 1,
			Compute:  compute,
			HTTP:     &http.Client{Transport: tr},
		})
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = w.Run(wctx)
		}()
	}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for n := 0; n < svcWorkers; n++ {
		select {
		case <-registered:
		case <-deadline.C:
			s.close()
			return nil, fmt.Errorf("service: workers did not register")
		}
	}
	return s, nil
}

// close stops the workers (they deregister while the server is still
// up), then the server, and waits for both.
func (s *stack) close() {
	s.stopWorkers()
	s.workers.Wait()
	s.cancel()
	_ = s.srv.Close()
	<-s.served
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
}

func newClient(url string) (*jobs.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	c := jobs.NewClient(url)
	c.HTTP = &http.Client{Transport: tr}
	return c, tr
}

// panelJob is one panel run as one job, as the client saw it.
type panelJob struct {
	panel   int   // cells[panel*panelCells:] are the panel's cells
	order   []int // the job's cells, as indexes into the panel
	id      string
	start   time.Time
	wall    time.Duration    // from Submit to the end of Status
	calls   [3]time.Duration // Submit, StreamResults, Status
	results []jobs.CellResult
	status  *jobs.JobStatus
}

// runPanel runs one panel as a job, its cells in the order drawn from
// key: Submit, StreamResults and Status, the three calls of Client.Run,
// each timed.  The results come back in the panel's own order.
func runPanel(ctx context.Context, client *jobs.Client, cells []jobs.CellSpec, panel int, key uint64) (*panelJob, error) {
	pc := cells[panel*panelCells : (panel+1)*panelCells]
	j := &panelJob{panel: panel, order: permutation(key, len(pc)), results: make([]jobs.CellResult, len(pc))}
	req := jobs.JobRequest{Cells: make([]jobs.CellSpec, len(pc))}
	for i, c := range j.order {
		req.Cells[i] = pc[c]
	}
	j.start = time.Now()
	id, err := client.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	err = client.StreamResults(ctx, id, func(res jobs.CellResult) error {
		if res.Index < 0 || res.Index >= len(j.order) {
			return fmt.Errorf("result index %d out of range", res.Index)
		}
		j.results[j.order[res.Index]] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	j.status, err = client.Status(ctx, id)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	j.id, j.wall = id, t3.Sub(j.start)
	j.calls = [3]time.Duration{t1.Sub(j.start), t2.Sub(t1), t3.Sub(t2)}
	if j.status.Done < j.status.Cells {
		return nil, fmt.Errorf("job %s: stream ended with %d of %d cells", id, j.status.Done, j.status.Cells)
	}
	return j, nil
}

// coldResult is one cold sweep: results in canonical cell order.
type coldResult struct {
	results []jobs.CellResult
	jobs    []*panelJob
	raw     time.Duration // the jobs' times
	scaled  float64       // seconds: each job's time over its slowdown
	insts   uint64
	alloc   float64
}

// coldSweep runs every panel once, in the seed's order.  Every cell must
// be computed, none served from the store.
func coldSweep(r *report, s *stack, cells []jobs.CellSpec, seed uint64, tr *tracer) (*coldResult, error) {
	client, ctr := newClient(s.url)
	defer ctr.CloseIdleConnections()
	ctx := context.Background()
	cr := &coldResult{results: make([]jobs.CellResult, len(cells))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, k := range permutation(seed, len(cells)/panelCells) {
		sp := tr.begin("cold job", 0, -1)
		j, err := runPanel(ctx, client, cells, k, splitmix(seed)+uint64(k))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cr.scaled += j.wall.Seconds() / r.host.sample()
		cr.raw += j.wall
		cr.jobs = append(cr.jobs, j)
		copy(cr.results[k*panelCells:], j.results)
		r.check(j.status.Computes == panelCells && j.status.Failed == 0,
			"cold job %s: %d computes, %d failed, want %d and 0", j.id, j.status.Computes, j.status.Failed, panelCells)
	}
	runtime.ReadMemStats(&m1)
	cr.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	for i, res := range cr.results {
		var err error
		switch {
		case res.Error != "":
			err = fmt.Errorf("%s", res.Error)
		case res.Stats == nil:
			err = fmt.Errorf("no result")
		}
		r.op(cellName(cells[i]), err)
		if err != nil {
			continue
		}
		r.check(!res.Cached, "%s: cold cell served from the store", cellName(cells[i]))
		cr.insts += res.Stats.Committed
	}
	return cr, nil
}

// directIndex picks the cold cells that are recomputed directly.
func directIndex(n int) []int {
	var out []int
	for i := 0; i < directCells && i < n; i++ {
		out = append(out, i*n/directCells)
	}
	return out
}

// checkDirect recomputes a few cold cells with fleet.Execute, outside
// the service, and requires byte-identical records.
func checkDirect(r *report, cells []jobs.CellSpec, results []jobs.CellResult) {
	for _, i := range directIndex(len(cells)) {
		rec, err := fleet.Execute(context.Background(), fleetSpec(cells[i]))
		r.op(cellName(cells[i])+" direct", err)
		if err != nil {
			continue
		}
		want, _ := json.Marshal(store.Record{Stats: rec.Stats, Metrics: rec.Metrics})
		got, _ := json.Marshal(store.Record{Stats: results[i].Stats, Metrics: results[i].Metrics})
		r.check(string(want) == string(got), "%s: service record differs from a direct fleet.Execute", cellName(cells[i]))
	}
}

// hotResult is one hot phase.
type hotResult struct {
	panelMS [][]float64 // per panel, per round: the job's time per cell over its slowdown
	alloc   float64     // heap bytes allocated
	jobs    []*panelJob
}

// hotPhase runs every panel again, rounds times, each round in an order
// drawn from the seed.  Every cell must be served from the store and
// equal its cold result.
func hotPhase(r *report, s *stack, cells []jobs.CellSpec, cold []jobs.CellResult, seed uint64, rounds int, tr *tracer) *hotResult {
	client, ctr := newClient(s.url)
	defer ctr.CloseIdleConnections()
	ctx := context.Background()
	h := &hotResult{panelMS: make([][]float64, len(cells)/panelCells)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for round := 0; round < rounds; round++ {
		key := splitmix(seed + uint64(round+1))
		for _, k := range permutation(key, len(cells)/panelCells) {
			sp := tr.begin("hot job", 0, -1)
			j, err := runPanel(ctx, client, cells, k, key+uint64(k))
			tr.end(sp)
			if err == nil && (j.status.Computes != 0 || j.status.Hits != panelCells) {
				err = fmt.Errorf("%d computes and %d hits, want 0 and %d", j.status.Computes, j.status.Hits, panelCells)
			}
			for i := 0; err == nil && i < panelCells; i++ {
				got, want := j.results[i], cold[k*panelCells+i]
				if !got.Cached || !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Metrics, want.Metrics) {
					err = fmt.Errorf("%s: not the stored cold result", cellName(cells[k*panelCells+i]))
				}
			}
			r.op(fmt.Sprintf("hot job %d of panel %d", round+1, k), err)
			if j == nil {
				continue
			}
			h.panelMS[k] = append(h.panelMS[k], ms(j.wall)/panelCells/r.host.sample())
			h.jobs = append(h.jobs, j)
		}
	}
	runtime.ReadMemStats(&m1)
	h.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	return h
}

// executeLog records each worker compute of the traced sweep.
type executeLog struct {
	mu   sync.Mutex
	runs map[string]time.Duration // cell name -> fleet.Execute time
	busy time.Duration
}

// tracedService measures the service's layers: a second cold sweep on
// a fresh stack whose worker times fleet.Execute, with the server's own
// request trace of every job fetched afterwards; the four directly
// recomputed cells driven cycle by cycle; direct keying of every cell
// and store reads and writes of every stored record; and a hot phase
// with each HTTP call timed.
func tracedService(r *report, root string, cells []jobs.CellSpec, seed uint64, rounds int, untraced *coldResult) error {
	tr := r.tr
	log := &executeLog{runs: map[string]time.Duration{}}
	index := map[string]int{}
	for i, c := range cells {
		index[cellName(c)] = i
	}
	compute := func(ctx context.Context, spec fleet.Spec) (*store.Record, error) {
		t := time.Now()
		sp := tr.begin("fleet.Execute", 0, index[spec.Name()])
		rec, err := fleet.Execute(ctx, spec)
		tr.end(sp)
		d := time.Since(t)
		log.mu.Lock()
		log.runs[spec.Name()] = d
		log.busy += d
		log.mu.Unlock()
		return rec, err
	}
	s, err := startStack(filepath.Join(root, "traced"), compute)
	if err != nil {
		return err
	}
	defer s.close()
	before := s.disp.Counters()
	cold, err := coldSweep(r, s, cells, seed, tr)
	if err != nil {
		return err
	}
	after := s.disp.Counters()
	r.set("trace.overhead_pct", 100*(cold.scaled/untraced.scaled-1), "%")
	for i, res := range cold.results {
		u := untraced.results[i]
		r.check(reflect.DeepEqual(res.Stats, u.Stats) && reflect.DeepEqual(res.Metrics, u.Metrics),
			"%s: traced sweep's record differs from the untraced sweep's", cellName(cells[i]))
	}

	// Core layer: host time inside fleet.Execute per simulated cycle,
	// and the simulated counts of every cold cell.
	var lt layerTimes
	executeS := make([]float64, 0, len(cells))
	for i, res := range cold.results {
		if res.Stats == nil {
			continue
		}
		d := log.runs[cellName(cells[i])]
		lt.addCore(d, res.Stats)
		executeS = append(executeS, d.Seconds())
	}
	// The per-cycle histogram and core construction time come from the
	// directly recomputed cells, driven cycle by cycle with histogram
	// telemetry on, as fleet.Execute runs them.
	driveDirect(r, cells, cold.results, &lt)
	setCore(r, &lt, &lt.stats)
	r.set("emu.step_ns", emuStepNs(mixPrograms(workload.Mix(1, 2)), 1_000_000), "ns")
	buildS := make([]float64, setupReps)
	for i := range buildS {
		buildS[i], _ = timed(func() error { mixPrograms(workload.Names); return nil })
	}
	r.set("workload.build_ms", 1e3*median(buildS), "ms")

	// Fleet layer, from the worker's computes and the server's trace of
	// every cold job.
	client, ctr := newClient(s.url)
	defer ctr.CloseIdleConnections()
	var overhead, wait, putMS []float64
	for _, j := range cold.jobs {
		spans, err := fetchSpans(client, j.id, tr, j.start)
		if err != nil {
			return err
		}
		for _, c := range spans.cells {
			if c.lease > 0 {
				cell := cells[j.panel*panelCells+j.order[c.index]]
				overhead = append(overhead, ms(c.lease-log.runs[cellName(cell)]))
				wait = append(wait, ms(c.compute-c.lease))
			}
			if c.put > 0 {
				putMS = append(putMS, ms(c.put))
			}
		}
	}
	r.set("fleet.execute_s_p50", median(executeS), "s")
	r.set("fleet.overhead_ms_per_cell", median(overhead), "ms")
	r.set("fleet.lease_wait_ms_p50", median(wait), "ms")
	r.set("fleet.worker_busy_frac", log.busy.Seconds()/(svcWorkers*cold.raw.Seconds()), "ratio")
	r.set("fleet.leases", float64(after.LeasesGranted-before.LeasesGranted), "count")
	r.set("fleet.requeues", float64(after.Requeues-before.Requeues), "count")
	r.set("fleet.local_computes", float64(after.LocalComputes-before.LocalComputes), "count")
	r.set("store.put_ms_p50", median(putMS), "ms")

	// Store layer, timed directly on the stored keys.
	storeDirect(r, s.store, cells, cold.results)
	c0 := s.store.Counters()

	// Hot phase, each HTTP call timed, and the server's spans of every
	// tenth job.
	hot := hotPhase(r, s, cells, cold.results, seed, rounds, tr)
	c1 := s.store.Counters()
	var submitMS, streamMS, statusMS, cellMS, hotQueue, hotStream []float64
	for i, j := range hot.jobs {
		submitMS = append(submitMS, ms(j.calls[0]))
		streamMS = append(streamMS, ms(j.calls[1]))
		statusMS = append(statusMS, ms(j.calls[2]))
		cellMS = append(cellMS, ms(j.wall)/panelCells)
		if i%10 != 0 {
			continue
		}
		sp, err := fetchSpans(client, j.id, nil, time.Time{})
		if err != nil {
			return err
		}
		hotQueue = append(hotQueue, sp.queueMS...)
		hotStream = append(hotStream, sp.streamMS...)
	}
	served := float64(len(hot.jobs) * panelCells)
	r.set("store.hit_ratio", ratio(float64(c1.DiskHits-c0.DiskHits), served), "ratio")
	r.set("store.computes", float64(c1.Computes), "count")
	r.set("store.disk_hits", float64(c1.DiskHits-c0.DiskHits), "count")
	r.set("store.corrupt", float64(c1.Corrupt), "count")
	r.set("jobs.submit_ms_p50", median(submitMS), "ms")
	r.set("jobs.result_ms_p50", median(streamMS), "ms")
	r.set("jobs.status_ms_p50", median(statusMS), "ms")
	r.set("jobs.queue_ms_p50", median(hotQueue), "ms")
	r.set("jobs.stream_ms_p50", median(hotStream), "ms")
	r.set("jobs.hit_overhead_ms", median(cellMS)-r.metrics["store.get_us_p50"].Value/1e3, "ms")
	return nil
}

// driveDirect drives the directly recomputed cells with Core.Cycle,
// timing core construction and sampled cycles into lt, and checks the
// statistics against the service's records.
func driveDirect(r *report, cells []jobs.CellSpec, results []jobs.CellResult, lt *layerTimes) {
	for _, i := range directIndex(len(cells)) {
		c := cells[i]
		progs := mixPrograms(c.Workloads)
		t := time.Now()
		cr, err := recyclesim.NewCore(c.Machine, c.Features, progs)
		lt.newMS = append(lt.newMS, ms(time.Since(t)))
		r.op(cellName(c)+" driven", err)
		if err != nil {
			continue
		}
		cr.Obs.Hists = true
		drive(cr, c.Insts, 40*c.Insts, &lt.cycleNs, nil, 0, i)
		r.check(results[i].Stats != nil && reflect.DeepEqual(*results[i].Stats, *cr.Stats),
			"%s: driven Cycle loop statistics differ from the service's record", cellName(c))
	}
}

// cellKey resolves and keys a cell the way the job server does before
// it looks the cell up in the store.
func cellKey(c jobs.CellSpec) string {
	return store.CellKey(c.Machine, c.Features, store.HashPrograms(mixPrograms(c.Workloads)), c.Insts, nil)
}

// storeDirect times, outside the server, the keying of every cell and
// store.Get and store.Put on every stored record.
func storeDirect(r *report, st *store.Store, cells []jobs.CellSpec, results []jobs.CellResult) {
	var keyMS, getUS, putMS, sizeKB []float64
	for i, res := range results {
		if res.Key == "" {
			continue
		}
		t := time.Now()
		key := cellKey(cells[i])
		keyMS = append(keyMS, ms(time.Since(t)))
		r.check(key == res.Key, "%s: key %s, the service's is %s", cellName(cells[i]), key, res.Key)
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			_, ok := st.Get(res.Key)
			getUS = append(getUS, float64(time.Since(t))/1e3)
			r.check(ok, "store.Get %s: stored record missing", res.Key)
		}
		rec := &store.Record{Stats: res.Stats, Metrics: res.Metrics}
		b, _ := json.Marshal(rec)
		sizeKB = append(sizeKB, float64(len(b))/1024)
		t = time.Now()
		err := st.Put(res.Key, rec)
		putMS = append(putMS, ms(time.Since(t)))
		r.op("store.Put "+res.Key, err)
	}
	r.set("store.key_ms_p50", median(keyMS), "ms")
	r.set("store.get_us_p50", percentile(getUS, 50), "us")
	r.set("store.get_us_p99", percentile(getUS, 99), "us")
	r.set("store.put_direct_ms_p50", median(putMS), "ms")
	r.set("store.record_kb", median(sizeKB), "KB")
}

// jobSpans is what one job's server-side trace says about its cells.
type jobSpans struct {
	cells    []cellSpans
	queueMS  []float64
	streamMS []float64
}

// cellSpans holds one cell's server-side spans: "compute" covers the
// dispatcher's wait for a worker and the "lease" a worker held, which
// covers fleet.Execute plus the protocol around it.
type cellSpans struct {
	index               int
	compute, lease, put time.Duration
}

// fetchSpans reads a job's request trace from GET /jobs/{id}/trace and
// picks out the per-cell queue, compute, lease, put and stream spans.
// With a tracer, the server's spans are also copied into it (process
// 1, on the server's tracks), shifted to start at submitAt.
func fetchSpans(client *jobs.Client, id string, tr *tracer, submitAt time.Time) (*jobSpans, error) {
	raw, err := client.FetchTrace(context.Background(), id)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string                     `json:"name"`
			Ph   string                     `json:"ph"`
			Ts   int64                      `json:"ts"`
			Dur  int64                      `json:"dur"`
			Tid  int                        `json:"tid"`
			Args map[string]json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("job %s trace: %w", id, err)
	}
	arg := func(args map[string]json.RawMessage, k string) int {
		var v int
		_ = json.Unmarshal(args[k], &v)
		return v
	}
	js := &jobSpans{}
	cellOf := map[int]int{} // cell and compute span ids -> position in js.cells
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		dur := time.Duration(ev.Dur) * time.Microsecond
		id, parent := arg(ev.Args, "span"), arg(ev.Args, "parent")
		if tr != nil {
			at := tr.since(submitAt) + time.Duration(ev.Ts)*time.Microsecond
			tr.add(ev.Name, 0, ev.Tid-1, 1, at, at+dur)
		}
		switch ev.Name {
		case "cell":
			cellOf[id] = len(js.cells)
			js.cells = append(js.cells, cellSpans{index: arg(ev.Args, "index")})
		case "queue":
			js.queueMS = append(js.queueMS, ms(dur))
		case "stream":
			js.streamMS = append(js.streamMS, ms(dur))
		case "compute":
			if k, ok := cellOf[parent]; ok {
				js.cells[k].compute = dur
				cellOf[id] = k
			}
		case "lease":
			if k, ok := cellOf[parent]; ok {
				js.cells[k].lease = dur
			}
		case "put":
			if k, ok := cellOf[parent]; ok {
				js.cells[k].put = dur
			}
		}
	}
	return js, nil
}
