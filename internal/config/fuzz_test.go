package config

import (
	"testing"

	"recyclesim/internal/cache"
)

// FuzzMachineValidate drives Machine.Validate with arbitrary field
// values.  The properties: validation never panics, and any machine it
// accepts satisfies the structural invariants the simulator relies on
// (positive widths, fetch geometry that fits the contexts, power-of-two
// cache scaling that leaves a default hierarchy the core can build).
// Seed corpus: the four paper design points plus the boundary shapes in
// testdata/fuzz/FuzzMachineValidate.
func FuzzMachineValidate(f *testing.F) {
	for _, m := range []Machine{Big216(), Big18(), Small18(), Small28()} {
		f.Add(m.Contexts, m.FetchThreads, m.FetchWidth, m.FetchBlock,
			m.RenameWidth, m.CommitWidth, m.IQInt, m.IQFP,
			m.IntUnits, m.LSUnits, m.FPUnits, m.ActiveList,
			m.ExtraRegs, m.CacheScale, m.FrontEndLat)
	}
	f.Fuzz(func(t *testing.T, contexts, fthreads, fwidth, fblock,
		rwidth, cwidth, iqInt, iqFP,
		intUnits, lsUnits, fpUnits, activeList,
		extraRegs, cacheScale, frontEndLat int) {
		m := Machine{
			Name:         "fuzz",
			Contexts:     contexts,
			FetchThreads: fthreads, FetchWidth: fwidth, FetchBlock: fblock,
			RenameWidth: rwidth, CommitWidth: cwidth,
			IQInt: iqInt, IQFP: iqFP,
			IntUnits: intUnits, LSUnits: lsUnits, FPUnits: fpUnits,
			ActiveList:  activeList,
			ExtraRegs:   extraRegs,
			CacheScale:  cacheScale,
			FrontEndLat: frontEndLat,
		}
		if err := m.Validate(); err != nil {
			return
		}
		switch {
		case m.Contexts < 1 || m.Contexts > 16:
			t.Errorf("accepted context count %d", m.Contexts)
		case m.FetchThreads < 1 || m.FetchThreads > m.Contexts:
			t.Errorf("accepted fetch threads %d with %d contexts", m.FetchThreads, m.Contexts)
		case m.FetchBlock < 1 || m.FetchBlock > m.FetchWidth:
			t.Errorf("accepted fetch block %d with width %d", m.FetchBlock, m.FetchWidth)
		case m.RenameWidth < 1 || m.CommitWidth < 1 || m.IQInt < 1 || m.IQFP < 1:
			t.Errorf("accepted non-positive width/queue: %+v", m)
		case m.LSUnits < 1 || m.LSUnits > m.IntUnits || m.FPUnits < 1:
			t.Errorf("accepted bad FU mix: %+v", m)
		case m.ActiveList < 8 || m.ExtraRegs < 0 || m.FrontEndLat < 0:
			t.Errorf("accepted bad capacity fields: %+v", m)
		case m.CacheScale < 1 || m.CacheScale&(m.CacheScale-1) != 0:
			t.Errorf("accepted non-power-of-two cache scale %d", m.CacheScale)
		}
		// The core resets its hierarchy to this; Reset panics on a
		// geometry it cannot build.
		new(cache.Hierarchy).Reset(cache.DefaultHierarchy(m.CacheScale))
	})
}

// FuzzFeaturesValidate drives Features.Validate with arbitrary knob
// combinations.  Accepted combinations must be internally consistent
// (the recycling ladder implies TME, alternate paths have a positive
// cap) and must render to a stable figure-legend name.
func FuzzFeaturesValidate(f *testing.F) {
	for _, name := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
		p, _ := PresetByName(name)
		f.Add(p.TME, p.Recycle, p.Reuse, p.Respawn, int(p.AltPolicy), p.AltLimit, p.TrustTrace, p.InvariantEvery, p.WatchdogCycles)
	}
	f.Fuzz(func(t *testing.T, tme, recycle, reuse, respawn bool, altPolicy, altLimit int, trustTrace bool, invariantEvery, watchdogCycles uint64) {
		feat := Features{
			TME: tme, Recycle: recycle, Reuse: reuse, Respawn: respawn,
			AltPolicy: AltPolicy(altPolicy), AltLimit: altLimit,
			TrustTrace:     trustTrace,
			InvariantEvery: invariantEvery,
			WatchdogCycles: watchdogCycles,
		}
		if err := feat.Validate(); err != nil {
			return
		}
		switch {
		case feat.Recycle && !feat.TME,
			feat.Reuse && !feat.Recycle,
			feat.Respawn && !feat.Recycle,
			feat.TrustTrace && !feat.Recycle:
			t.Errorf("accepted inconsistent feature ladder: %+v", feat)
		case feat.TME && feat.AltLimit <= 0:
			t.Errorf("accepted TME without an alternate-path cap: %+v", feat)
		case feat.AltLimit < 0:
			t.Errorf("accepted negative AltLimit: %+v", feat)
		}
		if name := FeatureName(feat); name == "" {
			t.Errorf("accepted features with no figure-legend name: %+v", feat)
		}
	})
}
