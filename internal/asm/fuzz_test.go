package asm

import (
	"testing"

	"recyclesim/internal/isa"
)

// FuzzAssemble drives the .ras parser with arbitrary source text.  The
// properties: Assemble never panics, an accepted source yields a
// program whose control flow passes program.Validate (entry and every
// direct branch target land inside the text), every instruction sets
// only the fields its isa.Form uses, and assembly is deterministic —
// the same source assembles to the same image twice.  Seed corpus:
// testdata/fuzz/FuzzAssemble (every form, the pseudo-instructions, and
// one wrong operand count per form) plus the inline shapes below
// (plain ALU code, data directives, labels and branches, every comment
// marker, and a few malformed lines the parser must reject cleanly).
func FuzzAssemble(f *testing.F) {
	f.Add("li r1, 42\nadd r2, r1, r1\nhalt\n")
	f.Add(".word x 7\n.array buf 4 1 2 3 4\nla r2, x\nld r3, 0(r2)\nst r3, 8(r2)\nhalt\n")
	f.Add("start:\n li r1, 3\nloop: ; comment\n sub r1, r1, r2\n beq r1, r0, done\n jal loop\ndone: halt\n")
	f.Add("# hash comment\n// slash comment\nli r1, 1\njr ra\n")
	f.Add("beq r1, r2\n")        // malformed: missing target
	f.Add("li r99, 1\nhalt\n")   // malformed: no such register
	f.Add(".word\n")             // malformed directive
	f.Add("bogus r1, r2, r3\n")  // unknown mnemonic
	f.Add("loop: jal loop\n:\n") // empty label
	f.Add("li r1, 0x7fffffff\n") // big immediate, no halt

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			if p != nil {
				t.Error("non-nil program alongside an error")
			}
			return
		}
		if p == nil {
			t.Fatal("nil program with nil error")
		}
		if verr := p.Validate(); verr != nil {
			t.Errorf("accepted program fails validation: %v\nsource:\n%s", verr, src)
		}
		for _, in := range p.Code {
			if rest := unusedFields(in); rest != (isa.Inst{Op: in.Op}) {
				t.Errorf("%v sets fields its form does not use: %#v", in, rest)
			}
		}
		p2, err2 := Assemble("fuzz", src)
		if err2 != nil {
			t.Fatalf("second assembly of accepted source failed: %v", err2)
		}
		if len(p2.Code) != len(p.Code) || p2.Entry != p.Entry {
			t.Errorf("assembly not deterministic: %d/%d insts, entry %x/%x",
				len(p.Code), len(p2.Code), p.Entry, p2.Entry)
		}
		for i := range p.Code {
			if p.Code[i] != p2.Code[i] {
				t.Errorf("assembly not deterministic at inst %d: %v vs %v", i, p.Code[i], p2.Code[i])
				break
			}
		}
	})
}

// unusedFields clears the fields in's form uses, leaving those an
// assembled instruction must have zero.
func unusedFields(in isa.Inst) isa.Inst {
	switch in.Op.Form() {
	case isa.FormRRR:
		in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
	case isa.FormRRI, isa.FormLoad:
		in.Rd, in.Rs1, in.Imm = 0, 0, 0
	case isa.FormRR:
		in.Rd, in.Rs1 = 0, 0
	case isa.FormLi:
		in.Rd, in.Imm = 0, 0
	case isa.FormStore:
		in.Rs2, in.Rs1, in.Imm = 0, 0, 0
	case isa.FormBranch:
		in.Rs1, in.Rs2, in.Target = 0, 0, 0
	case isa.FormJ:
		in.Target = 0
	case isa.FormJal:
		in.Rd, in.Target = 0, 0
	case isa.FormJr:
		in.Rs1 = 0
	}
	return in
}
