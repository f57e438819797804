package fu

import (
	"testing"

	"recyclesim/internal/isa"
)

func TestIssueLimits(t *testing.T) {
	p := new(Pool).Reset(Config{IntUnits: 2, LSUnits: 1, FPUnits: 1})
	p.BeginCycle(1)
	if !p.TryIssue(isa.ClassIntALU, 1) || !p.TryIssue(isa.ClassIntALU, 1) {
		t.Fatal("two int issues should fit")
	}
	if p.TryIssue(isa.ClassIntALU, 1) {
		t.Fatal("third int issue should fail")
	}
	if p.TryIssue(isa.ClassLoad, 1) {
		t.Fatal("loads share the int units")
	}
	p.BeginCycle(2)
	if !p.TryIssue(isa.ClassLoad, 1) {
		t.Fatal("load should issue on a fresh cycle")
	}
	if p.TryIssue(isa.ClassStore, 1) {
		t.Fatal("second memory op exceeds the load/store units")
	}
	if !p.TryIssue(isa.ClassIntMul, 7) {
		t.Fatal("remaining int unit should take the multiply")
	}
}

func TestFPSeparate(t *testing.T) {
	p := new(Pool).Reset(Config{IntUnits: 1, LSUnits: 1, FPUnits: 2})
	p.BeginCycle(1)
	if !p.TryIssue(isa.ClassFPAdd, 4) || !p.TryIssue(isa.ClassFPMul, 4) {
		t.Fatal("fp issues should fit")
	}
	if p.TryIssue(isa.ClassFPAdd, 4) {
		t.Fatal("third fp issue should fail")
	}
	if !p.TryIssue(isa.ClassIntALU, 1) {
		t.Fatal("int pool is independent of fp usage")
	}
}

func TestDividerOccupancy(t *testing.T) {
	p := new(Pool).Reset(Config{IntUnits: 1, LSUnits: 1, FPUnits: 1})
	p.BeginCycle(1)
	if !p.TryIssue(isa.ClassIntDiv, 20) {
		t.Fatal("divide should issue")
	}
	// The divider is busy for the full latency even across cycles.
	p.BeginCycle(5)
	if p.TryIssue(isa.ClassIntDiv, 20) {
		t.Fatal("second divide should be blocked by the busy divider")
	}
	if !p.TryIssue(isa.ClassIntALU, 1) {
		t.Fatal("pipelined ALU op should still issue")
	}
	p.BeginCycle(22)
	if !p.TryIssue(isa.ClassIntDiv, 20) {
		t.Fatal("divide should issue after the divider frees")
	}
}

func TestFPDividerOccupancy(t *testing.T) {
	p := new(Pool).Reset(Config{IntUnits: 1, LSUnits: 1, FPUnits: 1})
	p.BeginCycle(1)
	if !p.TryIssue(isa.ClassFPDiv, 16) {
		t.Fatal("fp divide should issue")
	}
	p.BeginCycle(2)
	if p.TryIssue(isa.ClassFPDiv, 16) {
		t.Fatal("fp divider busy")
	}
}

func TestNopAlwaysIssues(t *testing.T) {
	p := new(Pool).Reset(Config{IntUnits: 1, LSUnits: 1, FPUnits: 1})
	p.BeginCycle(1)
	p.TryIssue(isa.ClassIntALU, 1)
	if !p.TryIssue(isa.ClassNop, 1) {
		t.Fatal("nop consumes no unit")
	}
}
