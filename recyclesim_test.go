package recyclesim

import (
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	res, err := Run(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  PresetByName("REC/RS/RU"),
		Workloads: []string{"compress"},
		MaxInsts:  20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 20_000 {
		t.Errorf("committed %d", res.Committed)
	}
	if res.IPC() <= 0 {
		t.Error("IPC should be positive")
	}
	if res.Recycled == 0 {
		t.Error("recycling enabled but nothing recycled")
	}
}

// No workloads, and a nil program, are errors on every entry point,
// not panics.
func TestRunNoWorkloads(t *testing.T) {
	if _, err := Run(Options{Machine: MachineByName("big.2.16")}); err == nil {
		t.Error("expected error")
	}
	nilProg := Options{Machine: MachineByName("big.2.16"), Features: PresetByName("SMT"), Programs: []*Program{nil}}
	if _, err := Run(nilProg); err == nil {
		t.Error("Run: a nil program: expected error")
	}
	if _, err := RunSampled(nilProg); err == nil {
		t.Error("RunSampled: a nil program: expected error")
	}
	if _, err := NewCore(nilProg.Machine, nilProg.Features, nilProg.Programs); err == nil {
		t.Error("NewCore: a nil program: expected error")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	_, err := Run(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  SMT,
		Workloads: []string{"nope"},
	})
	if err == nil {
		t.Error("expected error")
	}
}

// A cache scale that leaves a level under one set is a validation
// error, not a panic while the core is built.
func TestRunRejectsUnbuildableCacheScale(t *testing.T) {
	m := MachineByName("big.2.16")
	m.CacheScale = 1 << 17
	_, err := Run(Options{Machine: m, Features: SMT, Workloads: []string{"compress"}, MaxInsts: 1_000})
	if err == nil || !strings.Contains(err.Error(), "cache scale") {
		t.Fatalf("Run = %v, want a cache scale validation error", err)
	}
}

func TestMachineByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MachineByName("bogus")
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 || ws[0] != "compress" || ws[7] != "vortex" {
		t.Errorf("workloads = %v", ws)
	}
	// The returned slice is a copy; mutating it must not corrupt the
	// library's list.
	ws[0] = "corrupted"
	if Workloads()[0] != "compress" {
		t.Error("Workloads returned an aliased slice")
	}
}

func TestFeaturePresets(t *testing.T) {
	if FeatureName(RECRSRU) != "REC/RS/RU" || FeatureName(SMT) != "SMT" {
		t.Error("preset naming")
	}
}

func TestCustomProgram(t *testing.T) {
	p, err := WorkloadByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Machine:  MachineByName("small.1.8"),
		Features: TME,
		Programs: []*Program{p},
		MaxInsts: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Error("nothing committed")
	}
}

func TestNewCoreStepping(t *testing.T) {
	p, _ := WorkloadByName("vortex")
	c, err := NewCore(MachineByName("big.2.16"), SMT, []*Program{p})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		c.Cycle()
	}
	if c.Stats.Committed == 0 {
		t.Error("cycle stepping committed nothing")
	}
	if c.CycleCount() != 2000 {
		t.Errorf("cycle count %d", c.CycleCount())
	}
}
