package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DeadKnob audits the configuration structs config.Machine and
// config.Features: every field must be read by the simulator core or by
// the config package itself (validation, preset naming).  A knob
// nothing reads is worse than dead weight — an experiment sweep can
// "vary" it and silently measure nothing.
type DeadKnob struct{}

// knobReaders are the module-relative packages whose reads make a knob
// live.
var knobReaders = []string{"internal/core", "internal/config"}

// Name implements Analyzer.
func (*DeadKnob) Name() string { return "deadknob" }

// Doc implements Analyzer.
func (*DeadKnob) Doc() string {
	return "flags configuration fields that the simulator never reads"
}

// Check implements Analyzer.
func (dk *DeadKnob) Check(prog *Program) []Diagnostic {
	cfgPkg := prog.Lookup(prog.ModPath + "/internal/config")
	if cfgPkg == nil {
		return nil
	}
	type field struct {
		owner string
		v     *types.Var
	}
	fields := map[types.Object]field{}
	var order []field
	for _, name := range []string{"Machine", "Features"} {
		obj := cfgPkg.Types.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := field{owner: name, v: st.Field(i)}
			fields[st.Field(i)] = f
			order = append(order, f)
		}
	}
	if len(order) == 0 {
		return nil
	}

	read := map[types.Object]bool{}
	for _, pkg := range prog.Pkgs {
		if !slices.Contains(knobReaders, prog.rel(pkg.Path)) {
			continue
		}
		for _, f := range pkg.Files {
			// Selector uses that are pure assignment targets are not
			// reads; collect them first so the second pass can skip
			// them.
			writes := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, lhs := range as.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || writes[sel] {
					return true
				}
				if fobj := pkg.Info.Uses[sel.Sel]; fobj != nil {
					if _, tracked := fields[fobj]; tracked {
						read[fobj] = true
					}
				}
				return true
			})
		}
	}

	var out []Diagnostic
	for _, f := range order {
		if !read[f.v] {
			out = append(out, Diagnostic{
				Pos:  prog.Position(f.v.Pos()),
				Rule: dk.Name(),
				Msg:  fmt.Sprintf("config knob %s.%s is never read by %s: dead configuration", f.owner, f.v.Name(), strings.Join(knobReaders, " or ")),
			})
		}
	}
	return out
}
