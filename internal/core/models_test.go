package core

import (
	"reflect"
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// fourMachines returns the four §5.3 design points in a fixed order.
func fourMachines() []config.Machine {
	return []config.Machine{config.Big216(), config.Big18(), config.Small18(), config.Small28()}
}

// trainModels runs a core on mach with m as its models, so every model
// in m holds state a cold set does not.
func trainModels(t *testing.T, mach config.Machine, m Models, prog string) {
	t.Helper()
	p, err := workload.ByName(prog)
	if err != nil {
		t.Fatal(err)
	}
	c := &Core{}
	if err := c.Load(mach, config.RECRSRU, []*program.Program{p}, nil, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3_000, 40*3_000); err != nil {
		t.Fatal(err)
	}
}

// sameModels reports whether a and b hold equal models.  A cache level
// may keep tag pages spare for later first fills, which a CopyFrom into
// a zero Models leaves behind, so the two are compared through such
// copies; the predictor and the estimator keep nothing spare and are
// compared directly as well.
func sameModels(a, b Models) bool {
	var ca, cb Models
	ca.CopyFrom(a)
	cb.CopyFrom(b)
	return reflect.DeepEqual(a.Pred, b.Pred) && reflect.DeepEqual(a.Conf, b.Conf) && reflect.DeepEqual(ca, cb)
}

// TestModelsReset: for every ordered pair of the four machines, models
// that ran on the first and are Reset for the second equal a zero
// Models Reset for the second.
func TestModelsReset(t *testing.T) {
	for _, from := range fourMachines() {
		for _, to := range fourMachines() {
			var used, want Models
			used.Reset(from)
			trainModels(t, from, used, "li")
			used.Reset(to)
			want.Reset(to)
			if !sameModels(used, want) {
				t.Errorf("models run on %s and Reset for %s differ from a zero Models Reset for it", from.Name, to.Name)
			}
		}
	}
}

// TestModelsCopyFrom: for every ordered pair of the four machines,
// CopyFrom of models trained on the first into models trained on the
// second equals CopyFrom into a zero Models, and training the copy
// leaves the source as it was.
func TestModelsCopyFrom(t *testing.T) {
	for _, from := range fourMachines() {
		for _, to := range fourMachines() {
			var src, dst, zero, before Models
			src.Reset(from)
			trainModels(t, from, src, "li")
			dst.Reset(to)
			trainModels(t, to, dst, "gcc")
			before.CopyFrom(src)
			dst.CopyFrom(src)
			zero.CopyFrom(src)
			if dst.Pred == src.Pred || dst.Conf == src.Conf || dst.Mem == src.Mem {
				t.Fatalf("%s into %s: CopyFrom adopted a source model instead of copying it", from.Name, to.Name)
			}
			if !sameModels(dst, zero) {
				t.Errorf("%s into %s: CopyFrom into used models differs from CopyFrom into a zero Models", from.Name, to.Name)
			}
			trainModels(t, from, dst, "gcc")
			if !reflect.DeepEqual(src, before) {
				t.Errorf("%s into %s: training the copy changed the source models", from.Name, to.Name)
			}
		}
	}
}
