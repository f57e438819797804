package main

import (
	"slices"
	"time"
)

// The machine this benchmark was written on is a virtual machine that
// shares its host's caches and memory bandwidth with other machines.
// Its speed changes from one second to the next and in phases of
// minutes: in a slow phase every instruction takes 20-50% longer (the
// process is not descheduled; its CPU time equals its wall time), so
// two runs of the same code minutes apart read as far apart as a real
// regression.  The benchmark therefore runs a fixed probe right after
// every timed operation and divides the operation's time by the
// probe's slowdown: its time over probeRefS, its time on that machine in
// a fast phase.  Every end-to-end time is thus at the reference speed.
// The probe hashes into a Go map and sorts, the kind of work the
// simulator does, so it slows with the simulator (README.md gives the
// measurements).  host.slowdown reports the median slowdown of a run.

const (
	probeKeys  = 1 << 16 // map keys the probe hashes into
	probeOps   = 200_000 // map operations per probe
	probeSorts = 1 << 15 // numbers the probe sorts
	// probeRefS is the probe's time on the reference machine (2 vCPUs
	// reported as "Intel(R) Xeon(R) Processor") in a fast phase.
	probeRefS = 0.0105
)

// hostSpeed is the probe.  Its work is fixed and allocates nothing once
// warm, so running it between cells does not change what a round
// allocates.
type hostSpeed struct {
	m   map[uint64]uint64
	xs  []uint64
	all []float64 // every sample's slowdown
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{m: make(map[uint64]uint64, probeKeys), xs: make([]uint64, probeSorts)}
	h.run()
	return h
}

// run does the probe's work once and returns its time in seconds.
func (h *hostSpeed) run() float64 {
	t := time.Now()
	x := uint64(7)
	for i := 0; i < probeOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 48 // probeKeys keys
		if v, ok := h.m[k]; ok && v&1 == 0 {
			h.m[k] = v + x
		} else {
			h.m[k] = x
		}
	}
	for i := range h.xs {
		x = x*6364136223846793005 + 1442695040888963407
		h.xs[i] = x
	}
	slices.Sort(h.xs)
	return time.Since(t).Seconds()
}

// sample runs the probe and returns its slowdown.
func (h *hostSpeed) sample() float64 {
	slow := h.run() / probeRefS
	h.all = append(h.all, slow)
	return slow
}

// samples runs the probe n times and returns the slowdowns.
func (h *hostSpeed) samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.sample()
	}
	return out
}

// scaleBatch appends *batch to scaled once it holds setupProbeEvery
// timings, each divided by the slowdown of a probe run right after
// them, and empties it.
func (h *hostSpeed) scaleBatch(scaled []float64, batch *[]float64) []float64 {
	if len(*batch) < setupProbeEvery {
		return scaled
	}
	slow := h.sample()
	for _, t := range *batch {
		scaled = append(scaled, t/slow)
	}
	*batch = (*batch)[:0]
	return scaled
}
