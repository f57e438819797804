package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"recyclesim/internal/lint/callgraph"
)

// HotAlloc turns PR 2's runtime steady-state allocation budgets into
// review-time diagnostics: functions annotated `//recycle:hotpath`
// (the cycle loop, the flight-recorder Record, the pipetrace recorder
// methods) and everything they transitively call must be free of
// allocating constructs.
//
// Traversal contract:
//
//   - Roots are declarations carrying a `//recycle:hotpath` doc
//     directive; if the module declares none the analyzer says so
//     instead of silently passing.
//   - Edges into `//recycle:coldpath` declarations are not followed:
//     that annotation marks deliberate off-steady-state work (invariant
//     dumps, crash reporting) reached from hot code only when the
//     simulation is already failing.
//   - Guarded edges (call sites dominated by an `if x != nil` check)
//     are not followed either — that is the optional-telemetry idiom,
//     where the nil check keeps disabled runs off the subtree; the
//     traceguard analyzer separately enforces the guards exist.
//
// The construct checks are heuristics tuned to this codebase, not an
// escape analysis: composite literals whose address is taken, map
// literals, closures that escape (stored in fields or structs,
// returned, sent), `append` that grows a slice other than the pooled
// `x = append(x, ...)` self-append shape, front reslices `x = x[i:]`
// that leave such a self-append nothing to grow into, arguments boxed into
// interface parameters, string concatenation, fmt calls, and defer
// inside loops.  Arguments to panic are exempt everywhere: a panicking
// simulation is off the budget by definition.
type HotAlloc struct{}

// Name implements Analyzer.
func (*HotAlloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (*HotAlloc) Doc() string {
	return "flags allocating constructs in //recycle:hotpath functions and their transitive callees"
}

// HotPathDirective and ColdPathDirective are the annotation spellings.
const (
	HotPathDirective  = "recycle:hotpath"
	ColdPathDirective = "recycle:coldpath"
)

// Check implements Analyzer.
func (h *HotAlloc) Check(prog *Program) []Diagnostic {
	g := prog.Callgraph()
	var roots []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Directive(HotPathDirective) {
			roots = append(roots, n)
		}
	}
	var out []Diagnostic
	if len(roots) == 0 {
		out = append(out, Diagnostic{
			Pos: prog.Position(token.NoPos), Rule: h.Name(),
			Msg: "no //recycle:hotpath annotations found; the analyzer would silently pass",
		})
		return out
	}
	reach := g.Reach(roots, func(e callgraph.Edge) bool {
		return !e.Guarded && !e.Callee.Directive(ColdPathDirective)
	})
	for _, n := range g.Nodes {
		st := reach[n]
		if st == nil {
			continue
		}
		chain := st.Chain(prog.ModPath)
		diag := func(pos token.Pos, format string, args ...interface{}) {
			out = append(out, Diagnostic{
				Pos: prog.Position(pos), Rule: h.Name(),
				Msg: sprintf(format, args...) + " (hot via " + chain + ")",
			})
		}
		h.checkNode(n, diag)
	}
	return out
}

// checkNode scans one hot function's own body (nested literals are
// their own nodes) with an ancestor stack for loop/panic context.
func (h *HotAlloc) checkNode(n *callgraph.Node, diag func(token.Pos, string, ...interface{})) {
	body := n.Body()
	if body == nil {
		return
	}
	w := &hotWalker{pkg: n.Pkg, emit: diag}
	w.walkStmts(body.List)
}

// hotWalker carries the traversal state: the ancestor stack (for
// loop-nesting, guard, and escape-context questions) and whether the
// current subtree is a panic argument.
type hotWalker struct {
	pkg     *callgraph.Pkg
	emit    func(token.Pos, string, ...interface{})
	stack   []ast.Node
	inPanic bool
}

// diag reports a finding unless the site sits inside a nil-guarded
// then-block: that is the optional-telemetry idiom, and the call graph
// already prunes guarded edges, so constructs materialising arguments
// for guarded calls are likewise off the steady-state path.
func (w *hotWalker) diag(pos token.Pos, format string, args ...interface{}) {
	for i := len(w.stack) - 2; i >= 0; i-- {
		ifs, ok := w.stack[i].(*ast.IfStmt)
		if !ok || i+1 >= len(w.stack) || w.stack[i+1] != ifs.Body {
			continue
		}
		if callgraph.CondHasNilCheck(ifs.Cond) {
			return
		}
	}
	w.emit(pos, format, args...)
}

func (w *hotWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walk(s)
	}
}

func (w *hotWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	if lit, ok := n.(*ast.FuncLit); ok {
		// The literal body is its own call-graph node; only the
		// literal's escape shape concerns this function.
		w.checkClosure(lit)
		return
	}
	w.stack = append(w.stack, n)
	defer func() { w.stack = w.stack[:len(w.stack)-1] }()

	switch x := n.(type) {
	case *ast.DeferStmt:
		if w.inLoop() {
			w.diag(x.Pos(), "defer inside a loop allocates a defer record per iteration")
		}
	case *ast.BinaryExpr:
		w.checkConcat(x)
	case *ast.UnaryExpr:
		if x.Op == token.AND && !w.inPanic {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				w.diag(x.Pos(), "&%s composite literal escapes to the heap", litType(w.pkg, cl))
			}
		}
	case *ast.AssignStmt:
		w.checkFrontReslice(x)
	case *ast.CompositeLit:
		if tv, ok := w.pkg.Info.Types[x]; ok && !w.inPanic {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				w.diag(x.Pos(), "map literal allocates")
			}
		}
	case *ast.CallExpr:
		if w.checkCall(x) {
			return // panic args walked with the exemption set
		}
	}
	children(n, func(c ast.Node) { w.walk(c) })
}

// checkCall handles the call-site rules (fmt, append discipline,
// interface boxing) and the panic exemption.  It returns true when it
// walked the children itself.
func (w *hotWalker) checkCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	// Type conversions are not calls; a conversion to an interface
	// type boxes, which the boxing check below sees at real calls.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch obj.Name() {
			case "panic":
				// Everything under panic is off the steady-state path.
				saved := w.inPanic
				w.inPanic = true
				for _, a := range call.Args {
					w.walk(a)
				}
				w.inPanic = saved
				return true
			case "append":
				w.checkAppend(call)
			}
			return false
		}
	}
	if w.inPanic {
		return false
	}
	// fmt calls allocate for formatting state and boxed operands; one
	// diagnostic covers the call, so the per-argument boxing check is
	// skipped for them.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := w.pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				w.diag(call.Pos(), "fmt.%s allocates; hot paths must format nothing", sel.Sel.Name)
				return false
			}
		}
	}
	w.checkBoxing(call)
	return false
}

// checkAppend accepts only the pooled-buffer shapes: `x = append(x,
// ...)` growing the same expression it assigns (amortized by the
// retained capacity), or appending to an explicit reslice `buf[:0]`.
// Anything else is append-without-capacity-evidence.
func (w *hotWalker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 || w.inPanic {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if sl, ok := dst.(*ast.SliceExpr); ok {
		// buf[:0] / buf[:0:n]: reuse of an existing allocation.
		if sl.High != nil && isZeroLit(sl.High) {
			return
		}
	}
	// Self-append: the enclosing statement is `<expr> = append(<expr>, ...)`.
	if len(w.stack) >= 2 {
		if as, ok := w.stack[len(w.stack)-2].(*ast.AssignStmt); ok &&
			len(as.Lhs) == 1 && as.Tok == token.ASSIGN &&
			exprEqual(as.Lhs[0], dst) {
			return
		}
	}
	w.diag(call.Pos(), "append without capacity evidence; grow a pooled buffer (x = append(x, ...)) or reslice x[:0]")
}

// checkFrontReslice flags `x = x[i:]` (any non-zero low bound): the
// slice loses the capacity in front of i for good, so the pooled
// self-append that usually follows a queue pop reallocates once per
// capacity's worth of pops.  A ring with a head index pops in place.
func (w *hotWalker) checkFrontReslice(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) || w.inPanic {
		return
	}
	for i, rhs := range as.Rhs {
		sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
		if ok && sl.Low != nil && !isZeroLit(sl.Low) && exprEqual(as.Lhs[i], sl.X) {
			w.diag(sl.Pos(), "front reslice drops capacity a later self-append must reallocate; pop from a ring with a head index")
		}
	}
}

// checkBoxing flags arguments whose concrete type is implicitly
// converted to an interface parameter — the conversion allocates for
// any value wider than a pointer word.
func (w *hotWalker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := w.pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) || isNilType(at.Type) {
			continue
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without a new allocation
		}
		w.diag(arg.Pos(), "argument of type %s is boxed into interface parameter %s", at.Type.String(), pt.String())
	}
}

// checkConcat flags non-constant string concatenation.
func (w *hotWalker) checkConcat(x *ast.BinaryExpr) {
	if x.Op != token.ADD || w.inPanic {
		return
	}
	tv, ok := w.pkg.Info.Types[x]
	if !ok || tv.Value != nil { // constant-folded concat is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		w.diag(x.Pos(), "string concatenation allocates; hot paths must not build strings")
	}
}

// checkClosure flags function literals in escaping positions: stored
// into a field or element, returned, placed in a composite literal, or
// sent on a channel.  A literal passed directly as a call argument (the
// zero-alloc scan-callback idiom) or bound to a local variable is not
// flagged — the compiler keeps those on the stack when they do not
// escape, and the literal's own body is checked as its own node.
func (w *hotWalker) checkClosure(lit *ast.FuncLit) {
	if w.inPanic || len(w.stack) == 0 {
		return
	}
	parent := w.stack[len(w.stack)-1]
	escapes := false
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != ast.Expr(lit) {
				continue
			}
			if i < len(p.Lhs) {
				switch ast.Unparen(p.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					escapes = true
				}
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
		escapes = true
	}
	if escapes {
		w.diag(lit.Pos(), "closure escapes (stored or returned); its context allocates per execution")
	}
}

// inLoop reports whether an ancestor of the current node (within this
// function body) is a for or range statement.
func (w *hotWalker) inLoop() bool {
	for i := len(w.stack) - 2; i >= 0; i-- {
		switch w.stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// children visits direct AST children in source order (mirror of the
// callgraph package's helper; kept local to avoid exporting it).
func children(n ast.Node, visit func(ast.Node)) {
	var kids []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if c == n {
			return true
		}
		kids = append(kids, c)
		return false
	})
	for _, k := range kids {
		visit(k)
	}
}

func litType(p *callgraph.Pkg, cl *ast.CompositeLit) string {
	if tv, ok := p.Info.Types[cl]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, func(*types.Package) string { return "" })
	}
	return "composite"
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

func isNilType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// exprEqual compares two simple lvalue expressions structurally:
// identifiers, selector chains, literals, and index expressions whose
// indices are built from those (covering the pooled ring-slot idiom
// `w.slots[due&w.mask] = append(w.slots[due&w.mask], ...)`).
func exprEqual(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && exprEqual(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Index, y.Index)
	case *ast.BinaryExpr:
		y, ok := b.(*ast.BinaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X) && exprEqual(x.Y, y.Y)
	case *ast.BasicLit:
		y, ok := b.(*ast.BasicLit)
		return ok && x.Kind == y.Kind && x.Value == y.Value
	}
	return false
}
