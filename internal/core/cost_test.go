package core

import (
	"strings"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// BenchmarkPresetCost measures the host cost of one renamed instruction
// under each preset the recycle path adds to: the eight kernels on
// big.2.16 at 400k committed instructions each, the benchmark's
// detailed-rec cell set, under SMT, TME, REC and REC/RS/RU.  One core
// runs every cell through Load, so the figure is cycle-loop time alone.
// It reports ns/renamed (host time over renamed instructions, summed
// over the cells) and renamed/commit (the simulated work per retired
// instruction, which differs by preset and explains part of the gap).
//
//	go test -run '^$' -bench PresetCost -count 5 ./internal/core
func BenchmarkPresetCost(b *testing.B) {
	const insts = 400_000
	progs, err := workload.MixPrograms(workload.Names)
	if err != nil {
		b.Fatal(err)
	}
	for _, feat := range []config.Features{config.SMT, config.TME, config.REC, config.RECRSRU} {
		// "REC/RS/RU" would name three levels; -bench selects REC_RS_RU.
		b.Run(strings.ReplaceAll(config.FeatureName(feat), "/", "_"), func(b *testing.B) {
			var c Core
			var run time.Duration
			var renamed, committed uint64
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if err := c.Load(config.Big216(), feat, []*program.Program{p}, nil, Models{}); err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					st, err := c.Run(insts, MaxCPI*insts)
					run += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					renamed += st.Renamed
					committed += st.Committed
				}
			}
			b.ReportMetric(float64(run.Nanoseconds())/float64(renamed), "ns/renamed")
			b.ReportMetric(float64(renamed)/float64(committed), "renamed/commit")
		})
	}
}
