package sample

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"strings"
	"testing"

	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// The master checkpoint invariant, for every workload: Capture ->
// Restore -> continue must produce a commit stream identical to the
// uninterrupted emulator.  Each checkpoint first goes through a
// standard-library binary (gob) or JSON round trip: a Checkpoint is
// plain exported data that shares nothing with the live emulator, so
// a caller can persist one without a package-specific codec.
func TestCheckpointRoundTripEveryWorkload(t *testing.T) {
	codecs := []struct {
		name   string
		encode func(*Checkpoint, *bytes.Buffer) error
		decode func(*bytes.Buffer, *Checkpoint) error
	}{
		{"binary", func(cp *Checkpoint, b *bytes.Buffer) error { return gob.NewEncoder(b).Encode(cp) },
			func(b *bytes.Buffer, cp *Checkpoint) error { return gob.NewDecoder(b).Decode(cp) }},
		{"json", func(cp *Checkpoint, b *bytes.Buffer) error { return json.NewEncoder(b).Encode(cp) },
			func(b *bytes.Buffer, cp *Checkpoint) error { return json.NewDecoder(b).Decode(cp) }},
	}
	for _, bench := range workload.Names {
		for _, codec := range codecs {
			t.Run(bench+"/"+codec.name, func(t *testing.T) {
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				base := program.NewMemory(p)
				ref := emu.New(p)
				ref.Run(30_000)

				var buf bytes.Buffer
				if err := codec.encode(Capture(ref, base), &buf); err != nil {
					t.Fatalf("encode: %v", err)
				}
				var cp Checkpoint
				if err := codec.decode(&buf, &cp); err != nil {
					t.Fatalf("decode: %v", err)
				}
				e, err := cp.Restore(p)
				if err != nil {
					t.Fatal(err)
				}
				if e.PC != ref.PC || e.Retired != ref.Retired || e.Regs != ref.Regs {
					t.Fatal("restored architectural state differs")
				}
				var got, want emu.StepInfo
				for i := 0; i < 10_000; i++ {
					ref.StepInto(&want)
					e.StepInto(&got)
					if got != want {
						t.Fatalf("step %d after restore: %+v != %+v", i, got, want)
					}
				}
			})
		}
	}
}

// A checkpoint of a halted emulator restores halted.
func TestCheckpointHalted(t *testing.T) {
	// A two-instruction program that halts immediately keeps the test
	// fast; the built-in benchmarks never halt within any test budget.
	p := &program.Program{
		Name:  "halts",
		Code:  []isa.Inst{{Op: isa.OpNop}, {Op: isa.OpHalt}},
		Entry: program.CodeBase,
	}
	base := program.NewMemory(p)
	e := emu.New(p)
	e.Run(10)
	if !e.Halted {
		t.Fatal("program did not halt")
	}
	r, err := Capture(e, base).Restore(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Retired != e.Retired {
		t.Errorf("restored halted=%v retired=%d, want halted=true retired=%d", r.Halted, r.Retired, e.Retired)
	}
}

func TestCheckpointRestoreValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := program.NewMemory(p)
	cp := Capture(emu.New(p), base)
	if _, err := cp.Restore(q); err == nil || !strings.Contains(err.Error(), "restored against") {
		t.Errorf("wrong-program restore: %v", err)
	}
	bad := *cp
	bad.PC = 0x2
	if _, err := bad.Restore(p); err == nil {
		t.Error("out-of-text PC restore accepted")
	}
	bad = *cp
	bad.Regs[0] = 7
	if _, err := bad.Restore(p); err == nil {
		t.Error("nonzero zero-register restore accepted")
	}
}
