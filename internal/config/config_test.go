package config

import (
	"slices"
	"strings"
	"testing"
)

func TestMachinesValid(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("%d machines", len(ms))
	}
	for name, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("name mismatch: %q vs %q", m.Name, name)
		}
	}
}

func TestMachineGeometry(t *testing.T) {
	big := Big216()
	if big.FetchThreads != 2 || big.FetchWidth != 16 || big.RenameWidth != 16 {
		t.Errorf("big.2.16 fetch geometry: %+v", big)
	}
	if big.IntUnits != 12 || big.LSUnits != 8 || big.FPUnits != 6 {
		t.Errorf("big.2.16 FUs: %+v", big)
	}
	b18 := Big18()
	if b18.FetchThreads != 1 || b18.FetchWidth != 8 {
		t.Errorf("big.1.8: %+v", b18)
	}
	s18 := Small18()
	if s18.RenameWidth != 8 || s18.CacheScale != 2 || s18.IntUnits != 6 {
		t.Errorf("small.1.8: %+v", s18)
	}
	s28 := Small28()
	if s28.FetchThreads != 2 || s28.FetchWidth != 8 {
		t.Errorf("small.2.8: %+v", s28)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Machine)
		want   string // substring the error must carry
	}{
		{"zero contexts", func(m *Machine) { m.Contexts = 0 }, "contexts"},
		{"too many contexts", func(m *Machine) { m.Contexts = 99 }, "contexts"},
		{"zero fetch threads", func(m *Machine) { m.FetchThreads = 0 }, "fetch geometry"},
		{"zero fetch width", func(m *Machine) { m.FetchWidth = 0 }, "fetch geometry"},
		{"zero fetch block", func(m *Machine) { m.FetchBlock = 0 }, "fetch geometry"},
		{"more fetch threads than contexts", func(m *Machine) { m.FetchThreads = m.Contexts + 1 }, "fetch threads"},
		{"fetch block wider than fetch width", func(m *Machine) { m.FetchBlock = m.FetchWidth + 1 }, "fetch block"},
		{"zero rename width", func(m *Machine) { m.RenameWidth = 0 }, "rename/commit width"},
		{"zero commit width", func(m *Machine) { m.CommitWidth = 0 }, "rename/commit width"},
		{"zero int queue", func(m *Machine) { m.IQInt = 0 }, "queue sizes"},
		{"zero fp queue", func(m *Machine) { m.IQFP = 0 }, "queue sizes"},
		{"zero int units", func(m *Machine) { m.IntUnits = 0 }, "functional unit"},
		{"zero fp units", func(m *Machine) { m.FPUnits = 0 }, "functional unit"},
		{"ls units exceed int units", func(m *Machine) { m.LSUnits = m.IntUnits + 1 }, "functional unit"},
		{"active list too small", func(m *Machine) { m.ActiveList = 4 }, "active list"},
		{"negative extra registers", func(m *Machine) { m.ExtraRegs = -1 }, "extra registers"},
		{"zero cache scale", func(m *Machine) { m.CacheScale = 0 }, "cache scale"},
		{"negative cache scale", func(m *Machine) { m.CacheScale = -2 }, "cache scale"},
		{"non-power-of-two cache scale", func(m *Machine) { m.CacheScale = 3 }, "power of two"},
		{"cache scale leaving L1s under one set", func(m *Machine) { m.CacheScale = 2048 }, "cache scale 2048 too large"},
		{"cache scale leaving L1s empty", func(m *Machine) { m.CacheScale = 1 << 17 }, "cache scale 131072 too large"},
		{"negative front-end latency", func(m *Machine) { m.FrontEndLat = -1 }, "front-end latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Big216()
			tc.mutate(&m)
			err := m.Validate()
			if err == nil {
				t.Fatal("bad machine validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The largest scale that leaves every level of the default hierarchy
// at least one full set (the 64 KB direct-mapped L1s at one 64-byte
// line) validates.
func TestValidateAcceptsLargestCacheScale(t *testing.T) {
	m := Big216()
	m.CacheScale = 1024
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFeaturesValidate(t *testing.T) {
	for _, name := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
		f, _ := PresetByName(name)
		if err := f.Validate(); err != nil {
			t.Errorf("preset %s rejected: %v", name, err)
		}
	}
	trust := RECRSRU
	trust.TrustTrace = true
	watchdogged := RECRSRU
	watchdogged.WatchdogCycles = 1 << 20
	watchdogOff := RECRSRU
	watchdogOff.WatchdogCycles = WatchdogOff
	for _, f := range []Features{trust, watchdogged, watchdogOff} {
		if err := f.Validate(); err != nil {
			t.Errorf("valid features %+v rejected: %v", f, err)
		}
	}

	cases := []struct {
		name   string
		mutate func(f *Features)
		want   string
	}{
		{"unknown alt policy", func(f *Features) { f.AltPolicy = AltPolicy(7) }, "alternate-path policy"},
		{"negative alt limit", func(f *Features) { f.AltLimit = -8 }, "negative alternate-path limit"},
		{"TME without alt limit", func(f *Features) { f.AltLimit = 0 }, "non-positive AltLimit"},
		{"recycle without TME", func(f *Features) { f.TME = false; f.AltLimit = 0 }, "Recycle requires TME"},
		{"reuse without recycle", func(f *Features) { f.Recycle = false; f.Respawn = false }, "Reuse requires Recycle"},
		{"respawn without recycle", func(f *Features) { f.Recycle = false; f.Reuse = false }, "Respawn requires Recycle"},
		{"trust-trace without recycle", func(f *Features) { *f = TME; f.TrustTrace = true }, "TrustTrace requires Recycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := RECRSRU
			tc.mutate(&f)
			err := f.Validate()
			if err == nil {
				t.Fatal("bad features validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
		f, ok := PresetByName(name)
		if !ok {
			t.Fatalf("missing preset %s", name)
		}
		if FeatureName(f) != name {
			t.Errorf("round trip: %s -> %s", name, FeatureName(f))
		}
	}
	if _, ok := PresetByName("NOPE"); ok {
		t.Error("bogus preset resolved")
	}
	want := []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"}
	if got := PresetNames(); !slices.Equal(got, want) {
		t.Errorf("PresetNames() = %q, want %q", got, want)
	}
}

func TestPresetSemantics(t *testing.T) {
	if SMT.TME || SMT.Recycle {
		t.Error("SMT must disable everything")
	}
	if !TME.TME || TME.Recycle {
		t.Error("TME enables multipath only")
	}
	if !RECRSRU.TME || !RECRSRU.Recycle || !RECRSRU.Reuse || !RECRSRU.Respawn {
		t.Error("REC/RS/RU enables everything")
	}
	if TME.AltLimit <= 0 {
		t.Error("TME presets need a positive alternate-path limit")
	}
}

func TestAltPolicyString(t *testing.T) {
	if AltStop.String() != "stop" || AltFetch.String() != "fetch" || AltNoStop.String() != "nostop" {
		t.Error("policy names")
	}
}
