package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"recyclesim/internal/lint/callgraph"
)

// guardedHooks are the simulator's optional telemetry hooks, as
// callgraph FuncIDs relative to the module path.  Every call site must
// be nil-guarded on the hook's receiver expression (c.ring for
// c.ring.Record).  An ID ending in a dot covers every method of the
// type (the pipetrace recorder's whole surface is hot-path hooks) and
// exempts call sites inside the type's own package: the recorder's
// methods calling each other are its implementation, not hook sites.
var guardedHooks = []string{
	"internal/obs.(Ring).Record",
	"internal/obs/pipetrace.(Recorder).",
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

// checkCall matches one call expression against guardedHooks and
// checks its guard using the current ancestor stack (root .. call).
func (tg *TraceGuard) checkCall(prog *Program, pkg *Package, call *ast.CallExpr, stack []ast.Node) *Diagnostic {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn := methodOf(pkg, sel)
	if fn == nil {
		return nil
	}
	id := callgraph.FuncID(fn)
	for _, h := range guardedHooks {
		h = prog.ModPath + "/" + h
		if strings.HasSuffix(h, ".") {
			if !strings.HasPrefix(id, h) || pkg.Path == fn.Pkg().Path() {
				continue
			}
		} else if id != h {
			continue
		}
		guard := callgraph.ExprPath(sel.X)
		if guard != "" && callgraph.Guarded(stack, guard) {
			return nil
		}
		return &Diagnostic{
			Pos:  prog.Position(call.Lparen),
			Rule: tg.Name(),
			Msg:  fmt.Sprintf("call to %s not dominated by an enclosing \"if %s != nil\" guard", id, guard),
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
