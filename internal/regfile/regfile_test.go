package regfile

import (
	"testing"
	"testing/quick"
)

func TestAllocRelease(t *testing.T) {
	f := new(File).Reset(4, 2)
	var regs []PhysReg
	for i := 0; i < 4; i++ {
		r, ok := f.Alloc(false)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		regs = append(regs, r)
	}
	if _, ok := f.Alloc(false); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
	if f.AllocFailures != 1 {
		t.Errorf("AllocFailures = %d", f.AllocFailures)
	}
	f.Release(regs[0])
	if r, ok := f.Alloc(false); !ok || r != regs[0] {
		t.Fatalf("released register not reallocated: %v %v", r, ok)
	}
}

func TestPoolsSeparate(t *testing.T) {
	f := new(File).Reset(2, 2)
	r1, _ := f.Alloc(false)
	r2, _ := f.Alloc(true)
	if f.IsFP(r1) {
		t.Error("int alloc returned fp register")
	}
	if !f.IsFP(r2) {
		t.Error("fp alloc returned int register")
	}
	f.Alloc(false)
	if _, ok := f.Alloc(false); ok {
		t.Error("int pool should be exhausted")
	}
	if _, ok := f.Alloc(true); !ok {
		t.Error("fp pool should still have a register")
	}
}

func TestRefCounting(t *testing.T) {
	f := new(File).Reset(2, 0)
	r, _ := f.Alloc(false)
	f.AddRef(r)
	if f.Refs(r) != 2 {
		t.Errorf("refs = %d", f.Refs(r))
	}
	f.Release(r)
	if f.FreeCount(false) != 1 {
		t.Error("register freed while still referenced")
	}
	f.Release(r)
	if f.FreeCount(false) != 2 {
		t.Error("register not freed at refcount zero")
	}
	if err := f.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestReleaseFreePanics(t *testing.T) {
	f := new(File).Reset(1, 0)
	r, _ := f.Alloc(false)
	f.Release(r)
	defer func() {
		if recover() == nil {
			t.Error("double release should panic")
		}
	}()
	f.Release(r)
}

func TestAddRefFreePanics(t *testing.T) {
	f := new(File).Reset(1, 0)
	r, _ := f.Alloc(false)
	f.Release(r)
	defer func() {
		if recover() == nil {
			t.Error("AddRef on free register should panic")
		}
	}()
	f.AddRef(r)
}

func TestValuesAndReady(t *testing.T) {
	f := new(File).Reset(1, 0)
	r, _ := f.Alloc(false)
	if f.Ready(r) {
		t.Error("fresh register should not be ready")
	}
	f.SetValue(r, 42)
	if !f.Ready(r) || f.Value(r) != 42 {
		t.Errorf("value = %d ready = %v", f.Value(r), f.Ready(r))
	}
	f.Release(r)
	r2, _ := f.Alloc(false)
	if f.Ready(r2) {
		t.Error("reallocated register should be reset to not-ready")
	}
}

func TestNoRegIsNoop(t *testing.T) {
	f := new(File).Reset(1, 0)
	f.AddRef(NoReg)
	f.Release(NoReg) // must not panic
}

// Property: any sequence of alloc/addref/release operations preserves
// register conservation (every register is exactly free or referenced).
func TestConservationProperty(t *testing.T) {
	fn := func(ops []uint8) bool {
		f := new(File).Reset(8, 4)
		var live []PhysReg
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if r, ok := f.Alloc(op%2 == 0); ok {
					live = append(live, r)
				}
			case 1:
				if len(live) > 0 {
					f.AddRef(live[int(op)%len(live)])
					live = append(live, live[int(op)%len(live)])
				}
			case 2:
				if len(live) > 0 {
					i := int(op) % len(live)
					f.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			if err := f.CheckConservation(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AddRefs and ReleaseAll over a map-table-like slice (NoReg
// holes, both pools, repeated registers) leave the same refcounts as
// one AddRef or Release per entry, and the same later Alloc sequence:
// ReleaseAll must free registers in slice order.
func TestBatchMatchesPerRegister(t *testing.T) {
	fn := func(picks []uint8) bool {
		batch, loop := new(File).Reset(8, 6), new(File).Reset(8, 6)
		var held []PhysReg
		for _, f := range []*File{batch, loop} {
			held = held[:0]
			for i := 0; i < 5; i++ {
				ri, _ := f.Alloc(false)
				rf, _ := f.Alloc(true)
				held = append(held, ri, rf)
			}
		}
		tab := []PhysReg{}
		for _, p := range picks {
			if p%4 == 0 {
				tab = append(tab, NoReg)
			} else {
				tab = append(tab, held[int(p)%len(held)])
			}
		}
		batch.AddRefs(tab)
		for _, r := range tab {
			loop.AddRef(r)
		}
		// Releasing the table drops the copy's references; releasing
		// every allocation once more, in the table's first-appearance
		// order, frees them all in an order the picks decide.
		last := []PhysReg{NoReg}
		seen := map[PhysReg]bool{NoReg: true}
		for _, r := range append(tab, held...) {
			if !seen[r] {
				seen[r] = true
				last = append(last, r)
			}
		}
		for _, rs := range [][]PhysReg{tab, last} {
			batch.ReleaseAll(rs)
			for _, r := range rs {
				loop.Release(r)
			}
		}
		for r := 0; r < 14; r++ {
			if batch.Refs(PhysReg(r)) != loop.Refs(PhysReg(r)) {
				return false
			}
		}
		for _, fp := range []bool{false, true} {
			for {
				rb, okb := batch.Alloc(fp)
				rl, okl := loop.Alloc(fp)
				if rb != rl || okb != okl {
					return false
				}
				if !okb {
					break
				}
			}
		}
		return batch.CheckConservation() == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBatchFreePanics(t *testing.T) {
	for name, call := range map[string]func(f *File, rs []PhysReg){
		"AddRefs":    (*File).AddRefs,
		"ReleaseAll": (*File).ReleaseAll,
	} {
		t.Run(name, func(t *testing.T) {
			f := new(File).Reset(2, 0)
			r0, _ := f.Alloc(false)
			r1, _ := f.Alloc(false)
			f.Release(r1)
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a free register should panic", name)
				}
			}()
			call(f, []PhysReg{NoReg, r0, r1})
		})
	}
}
