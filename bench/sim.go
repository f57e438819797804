package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"recyclesim"
	"recyclesim/internal/core"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/stats"
	"recyclesim/internal/workload"
)

const (
	simMachine = "big.2.16"
	// setupReps is how often set-up is timed; setup_s is the median.
	// One set-up takes about a millisecond, so a single timing swings by
	// half with whatever else the machine does in that millisecond.
	setupReps = 256
	// setupProbeEvery is how many set-ups pass between two host probes.
	setupProbeEvery = 16
	// minRounds is the fewest timed rounds a run takes, whatever
	// -seconds says, so the median is never a single round.
	minRounds = 3
	// cosimInsts is the length of the co-simulated correctness cell.
	cosimInsts = 100_000
	// smokeInsts sizes every simulation cell under -smoke.
	smokeInsts = 20_000
	// cycleSampleEvery is how often a driven Cycle call is timed for
	// the per-cycle histogram; timing every call would add a tenth to
	// the cycle cost being measured.
	cycleSampleEvery = 8
	// chunkCycles is the cycle count one "cycles" span covers.
	chunkCycles = 65536
)

// simCell is one simulation: a program on the machine with one feature
// set and a committed-instruction budget.
type simCell struct {
	prog  *program.Program
	feat  recyclesim.Features
	insts uint64
}

func (c simCell) name() string { return c.prog.Name + "/" + recyclesim.FeatureName(c.feat) }

// simPrograms builds the simulation workloads' inputs: the eight fixed
// kernels and the two programs generated from the seed.
func simPrograms(seed uint64) ([]*program.Program, error) {
	progs, err := workload.MixPrograms(workload.Names)
	if err != nil {
		return nil, err
	}
	for _, s := range []uint64{seed, seed + 1} {
		progs = append(progs, workload.Generate(workload.DefaultGenParams(s)))
	}
	return progs, nil
}

// timed runs f after a collection, so every repetition of a set-up
// pays for the same garbage, and returns its time in seconds.
func timed(f func() error) (float64, error) {
	runtime.GC()
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// setupSim builds the programs setupReps times and sets setup_s and
// workload.build_ms to the median.
func setupSim(o *options, r *report) ([]*program.Program, error) {
	var progs []*program.Program
	var setup, batch []float64
	for i := 0; i < setupReps; i++ {
		t, err := timed(func() (err error) {
			progs, err = simPrograms(o.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		batch = append(batch, t)
		setup = r.host.scaleBatch(setup, &batch)
	}
	r.set("setup_s", median(setup), "s")
	r.set("workload.build_ms", 1e3*median(setup), "ms")
	return progs, nil
}

// gcc picks the correctness and accuracy cells' program.
func gcc(progs []*program.Program) *program.Program { return progs[1] }

// simCells pairs every program with every feature set.  The generated
// programs get a twentieth of the budget: their speed varies with the
// seed, and a small share keeps that variation out of the timings.
func simCells(progs []*program.Program, feats []string, insts, genMin uint64) []simCell {
	var cells []simCell
	for _, f := range feats {
		for i, p := range progs {
			n := insts
			if i >= len(workload.Names) {
				n = max(insts/20, genMin)
			}
			cells = append(cells, simCell{prog: p, feat: recyclesim.PresetByName(f), insts: n})
		}
	}
	return cells
}

// rounds are the timed repetitions of one workload's cells.
type rounds struct {
	wall  []float64   // seconds per round: the sum of its cells' times
	cellS [][]float64 // cell i's seconds in every round, scaled (host.go)
	alloc []float64   // heap bytes allocated per round
}

// measure runs cell(round, i) for every one of n cells per round, until
// -seconds have passed and at least minRounds rounds are done (one
// round under -smoke or -trace 1).  A host probe follows every cell,
// outside its time, and the cell's time is divided by the probe's
// slowdown.  Each round starts after a collection, so one round's
// garbage is not charged to the next.
func measure(o *options, h *hostSpeed, n int, cell func(round, i int) error) (rounds, error) {
	rs := rounds{cellS: make([][]float64, n)}
	start := time.Now()
	for round := 0; ; round++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		wall := 0.0
		for i := 0; i < n; i++ {
			t := time.Now()
			if err := cell(round, i); err != nil {
				return rs, err
			}
			s := time.Since(t).Seconds() / h.sample()
			rs.cellS[i] = append(rs.cellS[i], s)
			wall += s
		}
		runtime.ReadMemStats(&m1)
		rs.wall = append(rs.wall, wall)
		rs.alloc = append(rs.alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		if o.smoke || o.trace || (round+1 >= minRounds && time.Since(start).Seconds() >= o.seconds) {
			return rs, nil
		}
	}
}

// simEndToEnd sets the end-to-end metrics of a simulation workload from
// its rounds; insts is per round.  Times are lower quartiles over the
// rounds (host.go): interference from the host only adds time, so the
// lower quartile follows the code and not the host.  cell_ms_p50 is the
// median across cells of each cell's time: the cells are a fixed set of
// different sizes, so a median over every round's samples would land on
// the edge between two cells and read one round's outlier.
func simEndToEnd(r *report, rs rounds, insts uint64) {
	sweep := lowerQuartile(rs.wall)
	lat := make([]float64, len(rs.cellS))
	for i, xs := range rs.cellS {
		lat[i] = 1e3 * lowerQuartile(xs)
	}
	r.set("sim_insts_per_s", float64(insts)/sweep, "insts/s")
	r.set("sweep_s", sweep, "s")
	r.set("cell_ms_p50", median(lat), "ms")
	r.set("alloc_mb", median(rs.alloc)/(1<<20), "MB")
}

// runDetailed is the detailed-smt and detailed-rec workload: every
// program on big.2.16 with one feature set, simulated cycle by cycle.
func runDetailed(o *options, r *report, preset string, insts uint64) error {
	if o.smoke {
		insts = smokeInsts
	}
	mach := recyclesim.MachineByName(simMachine)
	progs, err := setupSim(o, r)
	if err != nil {
		return err
	}
	cells := simCells(progs, []string{preset}, insts, 1)
	feat := recyclesim.PresetByName(preset)
	cosimCheck(o, r, mach, feat, []*program.Program{gcc(progs)})
	if o.trace {
		r.set("emu.step_ns", emuStepNs([]*program.Program{gcc(progs)}, 1_000_000), "ns")
		return tracedDetailed(r, mach, cells)
	}
	return detailedRounds(o, r, mach, cells)
}

// detailedRounds simulates every cell once per round, checks that every
// round gives the same statistics, and sets the end-to-end metrics.
func detailedRounds(o *options, r *report, mach recyclesim.Machine, cells []simCell) error {
	ref := make([]stats.Sim, len(cells))
	var total uint64
	rs, err := measure(o, r.host, len(cells), func(round, i int) error {
		c := cells[i]
		st, _, _, err := simulate(mach, c)
		r.op(c.name(), err)
		if err != nil {
			return err
		}
		if round == 0 {
			ref[i] = *st
			total += st.Committed
			r.digest.add(c.name(), st)
		} else {
			r.check(reflect.DeepEqual(ref[i], *st), "%s: round %d statistics differ from round 1", c.name(), round+1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	simEndToEnd(r, rs, total)
	return nil
}

// simulate builds a core for the cell and runs it with the harness's
// 40x cycle budget, returning the statistics and the host time spent
// constructing the core and inside Run.
func simulate(mach recyclesim.Machine, c simCell) (st *stats.Sim, newT, runT time.Duration, err error) {
	t := time.Now()
	cr, err := recyclesim.NewCore(mach, c.feat, []*program.Program{c.prog})
	newT = time.Since(t)
	if err != nil {
		return nil, newT, 0, err
	}
	t = time.Now()
	st, err = cr.Run(c.insts, 40*c.insts)
	return st, newT, time.Since(t), err
}

// layerTimes accumulates host time spent inside Core.Cycle loops.
type layerTimes struct {
	run     time.Duration
	stats   stats.Sim // the driven cores' statistics, summed
	newMS   []float64
	cycleNs durHist
}

func (lt *layerTimes) addCore(run time.Duration, st *stats.Sim) {
	lt.run += run
	lt.stats.Add(st)
}

// setCore sets the core-layer metrics: host time per simulated cycle
// and per renamed instruction from lt, the simulated ratios from sim.
func setCore(r *report, lt *layerTimes, sim *stats.Sim) {
	ns := float64(lt.run)
	r.set("core.new_ms", median(lt.newMS), "ms")
	r.set("core.ns_per_cycle", ratio(ns, float64(lt.stats.Cycles)), "ns")
	r.set("core.ns_per_renamed", ratio(ns, float64(lt.stats.Renamed)), "ns")
	r.set("core.cycle_ns_p50", lt.cycleNs.quantile(0.50), "ns")
	r.set("core.cycle_ns_p99", lt.cycleNs.quantile(0.99), "ns")
	c := float64(sim.Committed)
	r.set("core.ipc", sim.IPC(), "insts/cycle")
	r.set("core.renamed_per_commit", ratio(float64(sim.Renamed), c), "ratio")
	r.set("core.squashed_per_commit", ratio(float64(sim.Squashed), c), "ratio")
	r.set("core.fetched_per_commit", ratio(float64(sim.Fetched), c), "ratio")
	r.set("core.pct_recycled", sim.PctRecycled(), "%")
	r.set("core.pct_reused", sim.PctReused(), "%")
	r.set("core.forks_per_kinst", ratio(1e3*float64(sim.Forks), c), "1/kinst")
}

// drive steps the core exactly as Core.Run does (same stop conditions,
// without the watchdog, which only turns a livelock into an error),
// timing every cycleSampleEvery-th Cycle call into h and opening a
// "cycles" span every chunkCycles cycles.
func drive(c *core.Core, maxCommits, maxCycles uint64, h *durHist, tr *tracer, parent, cell int) {
	chunk := tr.begin("cycles", parent, cell)
	for c.Stats.Committed < maxCommits && c.CycleCount() < maxCycles && !c.Done() {
		if c.CycleCount()%cycleSampleEvery == 0 {
			t := time.Now()
			c.Cycle()
			h.add(time.Since(t))
		} else {
			c.Cycle()
		}
		if c.CycleCount()%chunkCycles == 0 {
			tr.end(chunk)
			chunk = tr.begin("cycles", parent, cell)
		}
	}
	tr.end(chunk)
}

// tracedDetailed runs one untraced round, timing each cell's core
// construction and Run call, then one traced round that drives
// Core.Cycle itself.  The driven loop must reproduce Run's statistics
// exactly.
func tracedDetailed(r *report, mach recyclesim.Machine, cells []simCell) error {
	var lt layerTimes
	ref := make([]*stats.Sim, len(cells))
	t0 := time.Now()
	for i, c := range cells {
		st, newT, runT, err := simulate(mach, c)
		r.op(c.name(), err)
		if err != nil {
			return err
		}
		lt.newMS = append(lt.newMS, ms(newT))
		lt.addCore(runT, st)
		r.cells = append(r.cells, breakdown(c.name(), runT, st))
		ref[i] = st
		r.digest.add(c.name(), st)
	}
	// Both rounds are scaled by probes taken right after them, so the
	// overhead does not include a change of host speed between them.
	untraced := time.Since(t0).Seconds() / median(r.host.samples(len(cells)))

	tr := r.tr
	t1 := time.Now()
	root := tr.begin("round", 0, -1)
	for i, c := range cells {
		cs := tr.begin("cell", root, i)
		nc := tr.begin("core.New", cs, i)
		cr, err := recyclesim.NewCore(mach, c.feat, []*program.Program{c.prog})
		tr.end(nc)
		if err != nil {
			return err
		}
		rs := tr.begin("run", cs, i)
		drive(cr, c.insts, 40*c.insts, &lt.cycleNs, tr, rs, i)
		tr.end(rs)
		tr.end(cs)
		r.check(reflect.DeepEqual(*ref[i], *cr.Stats), "%s: driven Cycle loop statistics differ from Core.Run", c.name())
	}
	tr.end(root)
	traced := time.Since(t1).Seconds() / median(r.host.samples(len(cells)))

	setCore(r, &lt, &lt.stats)
	r.set("trace.overhead_pct", 100*(traced/untraced-1), "%")
	return nil
}

// breakdown renders one cell's host time per committed instruction as
// renamed instructions per commit times host time per renamed
// instruction.
func breakdown(name string, run time.Duration, st *stats.Sim) cellBreakdown {
	ns := float64(run)
	return cellBreakdown{
		Cell:             name,
		IPC:              st.IPC(),
		NsPerCycle:       ratio(ns, float64(st.Cycles)),
		RenamedPerCommit: ratio(float64(st.Renamed), float64(st.Committed)),
		NsPerRenamed:     ratio(ns, float64(st.Renamed)),
		NsPerCommit:      ratio(ns, float64(st.Committed)),
	}
}

// cosimCheck co-simulates one untimed cell against the golden emulator,
// as internal/core's cosim tests do: every committed instruction must
// match the emulator's PC, instruction, result, address and branch
// direction.
func cosimCheck(o *options, r *report, mach recyclesim.Machine, feat recyclesim.Features, progs []*program.Program) {
	insts := uint64(cosimInsts)
	if o.smoke {
		insts = smokeInsts
	}
	name := fmt.Sprintf("cosim %s/%s", progs[0].Name, recyclesim.FeatureName(feat))
	emus := make([]*emu.Emulator, len(progs))
	for i, p := range progs {
		emus[i] = emu.New(p)
	}
	c, err := recyclesim.NewCore(mach, feat, progs)
	if err != nil {
		r.check(false, "%s: %v", name, err)
		return
	}
	var mismatch string
	c.CommitHook = func(ci recyclesim.CommitInfo) {
		ref := emus[ci.Program].Step()
		if mismatch != "" {
			return
		}
		switch {
		case ref.PC != ci.PC, ref.Inst != ci.Inst,
			ci.Inst.WritesReg() && ref.Result != ci.Result,
			ci.Inst.IsMem() && ref.Addr != ci.Addr,
			ci.Inst.IsBranch() && ref.Taken != ci.Taken:
			mismatch = fmt.Sprintf("commit at pc 0x%x (%v) differs from the emulator's (pc 0x%x, %v)", ci.PC, ci.Inst, ref.PC, ref.Inst)
		}
	}
	_, err = c.Run(insts, 40*insts+10_000)
	r.check(err == nil && mismatch == "" && c.Stats.Committed >= insts,
		"%s: err=%v committed=%d %s", name, err, c.Stats.Committed, mismatch)
}

// emuStepNs times the golden emulator alone over n instructions of
// each program.
func emuStepNs(progs []*program.Program, n uint64) float64 {
	var si emu.StepInfo
	t := time.Now()
	var steps uint64
	for _, p := range progs {
		e := emu.New(p)
		for i := uint64(0); i < n && !e.Halted; i++ {
			e.StepInto(&si)
			steps++
		}
	}
	return ratio(float64(time.Since(t)), float64(steps))
}
