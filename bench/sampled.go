package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"recyclesim"
	"recyclesim/internal/core"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
)

const (
	sampledInsts = 1_000_000
	// traceChunk is how many instructions one emu.TraceInto call steps
	// in the traced replay of the fast-forward.
	traceChunk = 4096
)

// sampledConfig is sample.Run's default schedule, spelled out so the
// traced replay follows the same one: period P = 20k, interval L = 1k,
// detached warmup W = 1k, one interval at a time.
var sampledConfig = sample.Config{Period: 20_000, IntervalLen: 1_000, WarmupLen: 1_000, Workers: 1}

var sampledFeatures = []string{"SMT", "REC/RS/RU"}

// runSampled is the sampled workload: every program on big.2.16 under
// SMT and REC/RS/RU in sampled mode.
func runSampled(o *options, r *report) error {
	insts := uint64(sampledInsts)
	if o.smoke {
		insts = smokeInsts
	}
	mach := recyclesim.MachineByName(simMachine)
	progs, err := setupSim(o, r)
	if err != nil {
		return err
	}
	cells := simCells(progs, sampledFeatures, insts, sampledConfig.Period)
	cosimCheck(o, r, mach, recyclesim.RECRSRU, []*program.Program{gcc(progs)})

	ref := make([]*sample.Result, len(cells))
	var covered uint64
	rs, err := measure(o, r.host, len(cells), func(round, i int) error {
		c := cells[i]
		res, err := sample.Run(mach, c.feat, c.prog, c.insts, sampledConfig)
		r.op(c.name(), err)
		if err != nil {
			return err
		}
		if round == 0 {
			ref[i] = res
			covered += res.TotalInsts
			r.digest.add(c.name(), res)
		} else {
			r.check(reflect.DeepEqual(ref[i], res), "%s: round %d sampled result differs from round 1", c.name(), round+1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if o.trace {
		return tracedSampled(r, mach, cells, ref, rs)
	}
	simEndToEnd(r, rs, covered)
	return nil
}

// sampleTimes accumulates the traced replay's host time per phase: the
// fast-forward's stepping and warming in total, the per-interval phases
// one entry per interval.
type sampleTimes struct {
	emu, observe                                      time.Duration
	steps                                             int
	captureMS, cloneMS, restoreMS, seedMS, intervalMS []float64
}

// tracedSampled replays each cell's sample.Run through the public calls
// it is built from, timing every phase, and checks that the replay
// reproduces sample.Run's per-interval CPIs exactly.
func tracedSampled(r *report, mach recyclesim.Machine, cells []simCell, ref []*sample.Result, rs rounds) error {
	untraced := rs.wall[0]
	var lt layerTimes
	var st sampleTimes
	tr := r.tr
	t0 := time.Now()
	root := tr.begin("round", 0, -1)
	for i, c := range cells {
		cs := tr.begin("cell", root, i)
		cpis, err := replaySampled(mach, c, &st, &lt, tr, cs, i)
		tr.end(cs)
		r.op(c.name()+" replay", err)
		if err != nil {
			return err
		}
		want := make([]float64, len(ref[i].Intervals))
		for k, iv := range ref[i].Intervals {
			want[k] = iv.CPI
		}
		r.check(reflect.DeepEqual(cpis, want), "%s: replayed interval CPIs differ from sample.Run", c.name())
	}
	tr.end(root)
	wall := time.Since(t0)
	// The untraced round's cells are scaled by the probe after each;
	// the traced round is scaled by probes taken right after it.
	scaledWall := wall.Seconds() / median(r.host.samples(len(cells)))

	var measured stats.Sim
	var total, detailed uint64
	var ci []float64
	for _, res := range ref {
		measured.Add(&res.Measured)
		total += res.TotalInsts
		detailed += res.DetailedInsts
		ci = append(ci, res.RelErrPct())
	}
	setCore(r, &lt, &measured)
	r.set("emu.step_ns", ratio(float64(st.emu), float64(st.steps)), "ns")
	r.set("trace.overhead_pct", 100*(scaledWall/untraced-1), "%")

	r.set("sample.observe_ns", ratio(float64(st.observe), float64(st.steps)), "ns")
	r.set("sample.capture_ms", median(st.captureMS), "ms")
	r.set("sample.clone_ms", median(st.cloneMS), "ms")
	r.set("sample.restore_ms", median(st.restoreMS), "ms")
	r.set("sample.seed_ms", median(st.seedMS), "ms")
	r.set("sample.interval_ms", median(st.intervalMS), "ms")
	intervals := 0
	for _, res := range ref {
		intervals += len(res.Intervals)
	}
	r.set("sample.alloc_kb_per_interval", rs.alloc[0]/1024/float64(intervals), "KB")
	wallMS := ms(wall)
	r.set("sample.share_ffwd", ms(st.emu+st.observe)/wallMS, "ratio")
	r.set("sample.share_clone", (sum(st.captureMS)+sum(st.cloneMS))/wallMS, "ratio")
	r.set("sample.share_seed", (sum(st.restoreMS)+sum(st.seedMS))/wallMS, "ratio")
	r.set("sample.share_detail", sum(st.intervalMS)/wallMS, "ratio")
	r.set("sample.detailed_frac", ratio(float64(detailed), float64(total)), "ratio")
	r.set("sample.ci_pct", median(ci), "%")
	r.set("sample.ipc_err_pct", ipcError(r, mach, cells, ref), "%")
	return nil
}

// ipcError compares the sampled IPC of the gcc cells with a full
// detailed run of the same budget and returns the mean absolute error.
func ipcError(r *report, mach recyclesim.Machine, cells []simCell, ref []*sample.Result) float64 {
	var errs []float64
	for i, c := range cells {
		if c.prog.Name != "gcc" {
			continue
		}
		st, _, _, err := simulate(mach, c)
		r.op(c.name()+" detailed reference", err)
		if err != nil {
			continue
		}
		errs = append(errs, 100*math.Abs(ref[i].IPC-st.IPC())/st.IPC())
	}
	return sum(errs) / float64(len(errs))
}

// replaySampled performs one cell's sample.Run step by step with the
// same schedule and returns the interval CPIs.  sample.Run seeds its
// intervals in chunks and may run them in parallel; with one worker
// the intervals are independent of that order, so running each right
// after its checkpoint gives the same results.
func replaySampled(mach recyclesim.Machine, c simCell, st *sampleTimes, lt *layerTimes, tr *tracer, parent, cell int) ([]float64, error) {
	cfg := sampledConfig
	base := program.NewMemory(c.prog)
	e := emu.New(c.prog)
	master := sample.NewWarmup(mach)
	buf := make([]emu.StepInfo, 0, traceChunk)
	// step fast-forwards n instructions, functionally warming master.
	step := func(n uint64) {
		ff := tr.begin("ffwd", parent, cell)
		for n > 0 && !e.Halted {
			t := time.Now()
			buf = e.TraceInto(buf, min(n, traceChunk))
			t1 := time.Now()
			for k := range buf {
				master.Observe(&buf[k])
			}
			st.emu += t1.Sub(t)
			st.observe += time.Since(t1)
			st.steps += len(buf)
			n -= uint64(len(buf))
		}
		tr.end(ff)
	}
	ff := cfg.Period - cfg.IntervalLen - cfg.WarmupLen
	budget := 40*(cfg.WarmupLen+cfg.IntervalLen) + 10_000
	var cpis []float64
	for k := uint64(0); k < c.insts/cfg.Period && !e.Halted; k++ {
		step(ff)
		if e.Halted {
			break
		}
		t := time.Now()
		cp := sample.Capture(e, base)
		t1 := time.Now()
		w := master.Clone()
		t2 := time.Now()
		st.captureMS = append(st.captureMS, ms(t1.Sub(t)))
		st.cloneMS = append(st.cloneMS, ms(t2.Sub(t1)))
		tr.add("capture", parent, cell, 0, tr.since(t), tr.since(t1))
		tr.add("clone", parent, cell, 0, tr.since(t1), tr.since(t2))
		step(cfg.WarmupLen + cfg.IntervalLen)
		if e.Halted {
			break
		}

		iv := tr.begin("interval", parent, cell)
		t = time.Now()
		re, err := cp.Restore(c.prog)
		if err != nil {
			return nil, err
		}
		t1 = time.Now()
		seed := &core.ArchState{PC: re.PC, Regs: re.Regs, Mem: re.Mem}
		cr, err := core.NewSeeded(mach, c.feat, []*program.Program{c.prog}, []*core.ArchState{seed})
		if err != nil {
			return nil, err
		}
		newDone := time.Now()
		cr.SeedMicroarch(w.Pred, w.Conf, w.Mem)
		t2 = time.Now()
		tr.add("restore", iv, cell, 0, tr.since(t), tr.since(t1))
		tr.add("seed", iv, cell, 0, tr.since(t1), tr.since(t2))
		st.restoreMS = append(st.restoreMS, ms(t1.Sub(t)))
		st.seedMS = append(st.seedMS, ms(t2.Sub(t1)))
		lt.newMS = append(lt.newMS, ms(newDone.Sub(t1)))

		rs := tr.begin("run", iv, cell)
		drive(cr, cfg.WarmupLen, budget, &lt.cycleNs, tr, rs, cell)
		c0, n0 := cr.Stats.Cycles, cr.Stats.Committed
		drive(cr, cfg.WarmupLen+cfg.IntervalLen, budget, &lt.cycleNs, tr, rs, cell)
		tr.end(rs)
		tr.end(iv)
		run := time.Since(t2)
		st.intervalMS = append(st.intervalMS, ms(run))
		lt.addCore(run, cr.Stats)
		if cr.Stats.Committed == n0 {
			return nil, fmt.Errorf("interval %d committed nothing", k)
		}
		cpis = append(cpis, float64(cr.Stats.Cycles-c0)/float64(cr.Stats.Committed-n0))
	}
	return cpis, nil
}
