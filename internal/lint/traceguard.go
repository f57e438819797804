package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// guardRule names one telemetry entry point that must be nil-guarded at
// every call site: the receiver expression is the guard (c.ring for
// c.ring.Record).  recvType is the receiver type relative to the
// module path ("internal/obs.Ring"), method the method name — or "*"
// to cover every method of the type (used for the pipetrace recorder,
// whose whole surface is hot-path hooks).
//
// Wildcard rules exempt call sites inside the receiver type's own
// package: the recorder's methods calling each other are its
// implementation, not hot-path hook sites.
type guardRule struct {
	recvType string
	method   string
}

// guardRules are the simulator's optional telemetry hooks.
var guardRules = []guardRule{
	{"internal/obs.Ring", "Record"},
	{"internal/obs/pipetrace.Recorder", "*"},
}

// TraceGuard flags telemetry calls in simulator packages not dominated
// by the corresponding enabled/nil check.  The flight-recorder ring and
// the pipeline tracer are optional: when disabled they are nil, and the
// hot loop's zero-alloc budget additionally requires that event
// arguments are never materialised on the disabled path.  A call site
// is accepted only when an enclosing if statement's condition contains
// "<guard> != nil" (possibly as a conjunct) and the call sits in that
// if's body.
type TraceGuard struct{}

// Name implements Analyzer.
func (*TraceGuard) Name() string { return "traceguard" }

// Doc implements Analyzer.
func (*TraceGuard) Doc() string {
	return "flags telemetry calls (flight-recorder Record, pipeline-trace hooks) not dominated by their enabled-nil check"
}

// Check implements Analyzer.
func (tg *TraceGuard) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !prog.simPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if d := tg.checkCall(prog, pkg, call, stack); d != nil {
					out = append(out, *d)
				}
				return true
			})
		}
	}
	return out
}

// checkCall matches one call expression against the rules and verifies
// guard dominance using the current ancestor stack (root .. call).
func (tg *TraceGuard) checkCall(prog *Program, pkg *Package, call *ast.CallExpr, stack []ast.Node) *Diagnostic {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn := methodOf(pkg, sel)
	if fn == nil {
		return nil
	}
	recv := recvTypeName(fn)
	for _, r := range guardRules {
		recvType := prog.ModPath + "/" + r.recvType
		if recv != recvType {
			continue
		}
		if r.method == "*" {
			// Wildcard rules guard the type's whole surface but exempt
			// its defining package (implementation, not hook sites).
			if pkg.Path == recvType[:strings.LastIndex(recvType, ".")] {
				continue
			}
		} else if fn.Name() != r.method {
			continue
		}
		guard := exprPath(sel.X)
		if guardDominates(stack, guard) {
			return nil
		}
		return &Diagnostic{
			Pos:  prog.Position(call.Lparen),
			Rule: tg.Name(),
			Msg: sprintf("call to %s.%s not dominated by an enclosing \"if %s != nil\" guard",
				recvType, fn.Name(), guard),
		}
	}
	return nil
}

// methodOf resolves a selector to the method it calls, or nil when the
// selector is not a method (package function, field of function type
// not covered by types.Selections, conversion, ...).
func methodOf(pkg *Package, sel *ast.SelectorExpr) *types.Func {
	if s, ok := pkg.Info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return fn
		}
	}
	return nil
}

// recvTypeName renders a method's receiver as "pkgpath.Type".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// guardDominates reports whether some ancestor if statement both
// contains the call in its body and tests "<guard> != nil" in its
// condition.  stack holds the ancestor path root..call; requiring
// stack[i+1] == ifStmt.Body rejects calls sitting in the condition,
// init statement, or else branch.
func guardDominates(stack []ast.Node, guard string) bool {
	if guard == "" {
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok || i+1 >= len(stack) || stack[i+1] != ifs.Body {
			continue
		}
		if condChecksNil(ifs.Cond, guard) {
			return true
		}
	}
	return false
}

// condChecksNil reports whether the condition contains "<guard> != nil"
// directly or as a conjunct of &&.  Disjunctions do not count: either
// side of || can be false while the branch runs.
func condChecksNil(e ast.Expr, guard string) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return condChecksNil(x.X, guard)
	case *ast.BinaryExpr:
		if x.Op == token.LAND {
			return condChecksNil(x.X, guard) || condChecksNil(x.Y, guard)
		}
		if x.Op == token.NEQ {
			if exprPath(x.X) == guard && isNilIdent(x.Y) {
				return true
			}
			if exprPath(x.Y) == guard && isNilIdent(x.X) {
				return true
			}
		}
	}
	return false
}

// exprPath renders an ident or selector chain ("c", "c.ring"); any
// other expression shape yields "" and never matches a guard.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
