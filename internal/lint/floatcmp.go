package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point operands in the
// simulator packages.  Exact float equality is almost always a rounding
// bug waiting to diverge the core from the golden emulator; the few
// legitimate sites (ISA comparison semantics shared verbatim by both
// executors) carry an explicit annotation.
type FloatCmp struct{}

// Name implements Analyzer.
func (*FloatCmp) Name() string { return "floatcmp" }

// Doc implements Analyzer.
func (*FloatCmp) Doc() string {
	return "flags == and != on floating-point operands in simulator packages"
}

// Check implements Analyzer.
func (fc *FloatCmp) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !prog.simPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if isFloat(pkg, be.X) || isFloat(pkg, be.Y) {
					out = append(out, Diagnostic{
						Pos:  prog.Position(be.OpPos),
						Rule: fc.Name(),
						Msg:  fmt.Sprintf("%s on floating-point operands; compare with an epsilon or annotate exact-semantics sites", be.Op),
					})
				}
				return true
			})
		}
	}
	return out
}

func isFloat(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
