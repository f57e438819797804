// Package callgraph builds an approximate whole-program call graph
// over the already-typed ASTs produced by internal/lint's loader, using
// nothing but the standard library.  It is the substrate for the
// transitive analyzers (determinism, hotalloc): they pick root
// functions, walk Reach, and inspect each reachable function body.
//
// The approximation, precisely:
//
//   - Static calls to package-level functions and methods with concrete
//     receivers are resolved exactly through types.Info (this is the
//     overwhelming majority of edges in the simulator).
//   - Calls through an interface add a dynamic edge to every method of
//     a module-declared type that implements the interface and carries
//     the called name (class-hierarchy style devirtualization).
//   - Function literals become their own nodes.  A literal that is
//     invoked on the spot gets a static edge; any other literal gets a
//     dynamic edge from its enclosing function, because passing or
//     storing it means it may run wherever it ends up.
//   - Function values are tracked intra-procedurally: `f := helper;
//     f()` links the caller to helper.  A named function or method
//     referenced as a value (address taken, passed as callback) gets a
//     dynamic edge from the function that takes the reference.
//   - Calls through struct fields of function type, map/slice elements,
//     or values that cross a function boundary are NOT resolved — the
//     graph under-approximates there, and analyzers built on it must
//     document that callbacks injected from outside the module escape
//     them (the runtime witnesses remain the backstop).
//
// Calls into packages outside the module (the standard library) have no
// bodies to traverse and add no edges; analyzers inspect the reachable
// bodies for them.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Pkg is one loaded, type-checked package handed to Build.
type Pkg struct {
	Path  string // import path
	Types *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Node is one function: a declared function or method (Decl non-nil)
// or a function literal (Lit non-nil).
type Node struct {
	// ID is the stable human-readable identity: "pkgpath.Func" for
	// functions, "pkgpath.(Recv).Method" for methods (pointer receivers
	// are spelled without the star), and "<parent>$<n>" for the n-th
	// function literal inside parent (source order, 1-based).
	ID   string
	Pkg  *Pkg
	Fn   *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Pos  token.Pos

	// Out lists the call edges in source order.
	Out []Edge
}

// Body returns the function body (nil for bodyless declarations, e.g.
// assembly stubs).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Directive reports whether the node's declaration carries the given
// comment directive ("//name" with no space, on the doc comment).
// Function literals carry no directives.
func (n *Node) Directive(name string) bool {
	if n.Decl == nil || n.Decl.Doc == nil {
		return false
	}
	for _, c := range n.Decl.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == name {
			return true
		}
	}
	return false
}

// Edge is one call site.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	// Dynamic marks edges that are approximations rather than direct
	// calls: interface dispatch, tracked function values, references to
	// functions as values, and non-invoked literals.
	Dynamic bool
	// Guarded marks call sites inside the then-block of an enclosing
	// `if x != nil` check — the simulator's "optional telemetry"
	// idiom, which hot-path analysis treats as off the steady-state
	// path (the traceguard analyzer separately verifies the guards).
	Guarded bool
}

// Graph is the whole-program call graph.
type Graph struct {
	// Nodes holds every function in a deterministic order: packages in
	// the order given to Build, files in order, declarations in source
	// order, literals in source order within their parent.
	Nodes []*Node

	byFn map[*types.Func]*Node
	byID map[string]*Node
}

// Lookup resolves a node by ID, nil when absent.
func (g *Graph) Lookup(id string) *Node { return g.byID[id] }

// FuncID renders the ID Build assigns to a declared function.
func FuncID(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := types.TypeString(t, func(p *types.Package) string { return "" })
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + ".(" + name + ")." + fn.Name()
		}
		return "(" + name + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// Build constructs the graph.  The pkgs slice must cover every module
// package whose functions should become nodes; imports that resolve
// outside the slice are treated as external.
func Build(pkgs []*Pkg) *Graph {
	g := &Graph{byFn: map[*types.Func]*Node{}, byID: map[string]*Node{}}
	b := &builder{g: g}

	// Pass 1: a node per function declaration, so forward references
	// resolve regardless of build order.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{ID: FuncID(fn), Pkg: p, Fn: fn, Decl: fd, Pos: fd.Pos()}
				g.Nodes = append(g.Nodes, n)
				g.byFn[fn] = n
				g.byID[n.ID] = n
			}
		}
	}

	// Pass 2: walk every body, creating literal nodes and edges.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				b.walkBody(g.byFn[fn], p, fd.Body)
			}
		}
	}

	b.resolveInterfaceCalls(pkgs)
	return g
}

type builder struct {
	g *Graph
	// ifaceCalls collects interface-dispatch sites for the post-pass.
	ifaceCalls []ifaceCall
}

type ifaceCall struct {
	from    *Node
	iface   *types.Interface
	name    string
	pos     token.Pos
	guarded bool
}

// walkBody scans one function body, assigning literal nodes and edges
// to owner.  Nested literal bodies are walked with the literal as the
// owner, not the enclosing function.
func (b *builder) walkBody(owner *Node, p *Pkg, body *ast.BlockStmt) {
	w := &bodyWalker{b: b, p: p, owner: owner}
	w.bindings = collectBindings(p, body)
	w.walk(body)
}

// bodyWalker carries the per-body state: the ancestor stack for guard
// detection, the function-value bindings of the body, and the set of
// expressions already consumed as call operands (so a function used as
// a callee is not double-counted as a value reference).
type bodyWalker struct {
	b        *builder
	p        *Pkg
	owner    *Node
	stack    []ast.Node
	bindings map[types.Object][]ast.Expr
	callees  map[ast.Node]bool
	nlit     int
}

// collectBindings maps local variables to the function expressions
// assigned to them anywhere in the body (`f := helper`, `f = func(){}`),
// the intra-procedural function-value tracking.
func collectBindings(p *Pkg, body *ast.BlockStmt) map[types.Object][]ast.Expr {
	out := map[types.Object][]ast.Expr{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if isFuncExpr(p, as.Rhs[i]) {
				out[obj] = append(out[obj], as.Rhs[i])
			}
		}
		return true
	})
	return out
}

// isFuncExpr reports whether the expression is a function literal or
// resolves to a declared function.
func isFuncExpr(p *Pkg, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return true
	case *ast.Ident:
		_, ok := p.Info.Uses[x].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			_, ok := sel.Obj().(*types.Func)
			return ok
		}
		_, ok := p.Info.Uses[x.Sel].(*types.Func)
		return ok
	}
	return false
}

// walk is a manual traversal so the ancestor stack is available at
// every visit (guard detection) and literal bodies switch owners.
func (w *bodyWalker) walk(n ast.Node) {
	if lit, ok := n.(*ast.FuncLit); ok {
		// New node owned by the literal; edge added by the parent at
		// the visit site (handleLit), which runs before descending.
		w.handleLit(lit)
		return
	}
	w.stack = append(w.stack, n)
	switch x := n.(type) {
	case *ast.CallExpr:
		w.handleCall(x)
	case *ast.Ident:
		w.handleRef(x, nil)
	case *ast.SelectorExpr:
		w.handleRef(x.Sel, x)
		// Descend only into X: the .Sel ident was just resolved as part
		// of the selector and must not be revisited on its own.
		w.walk(x.X)
		w.stack = w.stack[:len(w.stack)-1]
		return
	}
	Children(n, func(c ast.Node) { w.walk(c) })
	w.stack = w.stack[:len(w.stack)-1]
}

// handleLit creates the literal node, links it from the owner, and
// walks its body with the literal as owner.
func (w *bodyWalker) handleLit(lit *ast.FuncLit) {
	w.nlit++
	n := &Node{
		ID:  w.owner.ID + "$" + strconv.Itoa(w.nlit),
		Pkg: w.p, Lit: lit, Pos: lit.Pos(),
	}
	w.b.g.Nodes = append(w.b.g.Nodes, n)
	w.b.g.byID[n.ID] = n

	// Invoked on the spot -> static edge; otherwise the literal is
	// passed or stored somewhere and may run: dynamic edge.
	dynamic := !w.callees[lit]
	w.owner.Out = append(w.owner.Out, Edge{
		Callee: n, Pos: lit.Pos(), Dynamic: dynamic, Guarded: Guarded(w.stack, ""),
	})

	inner := &bodyWalker{b: w.b, p: w.p, owner: n, bindings: w.bindings}
	inner.walk(lit.Body)
}

// markCallee records that an expression is consumed as a call operand.
func (w *bodyWalker) markCallee(e ast.Node) {
	if w.callees == nil {
		w.callees = map[ast.Node]bool{}
	}
	w.callees[e] = true
}

// handleCall resolves a call expression to edges / ext uses.
func (w *bodyWalker) handleCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	w.markCallee(fun)
	switch x := fun.(type) {
	case *ast.Ident:
		switch obj := w.p.Info.Uses[x].(type) {
		case *types.Func:
			w.addFuncEdge(obj, call.Lparen, false)
		case *types.Var:
			// Tracked function value: edge to every function bound to
			// the variable in this body.
			for _, bound := range w.bindings[obj] {
				w.addBoundEdge(bound, call.Lparen)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := w.p.Info.Selections[x]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func:
				recv := sel.Recv()
				if types.IsInterface(recv) {
					if iface, ok := recv.Underlying().(*types.Interface); ok {
						w.b.ifaceCalls = append(w.b.ifaceCalls, ifaceCall{
							from: w.owner, iface: iface, name: obj.Name(),
							pos: call.Lparen, guarded: Guarded(w.stack, ""),
						})
					}
					return
				}
				w.addFuncEdge(obj, call.Lparen, false)
			}
			return
		}
		// Qualified identifier (pkg.Func) or method expression.
		if fn, ok := w.p.Info.Uses[x.Sel].(*types.Func); ok {
			w.addFuncEdge(fn, call.Lparen, false)
		}
	}
}

// handleRef adds dynamic edges for functions referenced as values:
// idents and selector .Sel idents that resolve to a *types.Func but are
// not the callee of the enclosing call.
func (w *bodyWalker) handleRef(id *ast.Ident, sel *ast.SelectorExpr) {
	fn, ok := w.p.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	var expr ast.Expr = id
	if sel != nil {
		expr = sel
		if s, ok := w.p.Info.Selections[sel]; ok {
			if sfn, ok := s.Obj().(*types.Func); ok {
				fn = sfn
			}
		}
	}
	if w.callees[expr] {
		return // handled as a call
	}
	w.addFuncEdge(fn, expr.Pos(), true)
}

// addFuncEdge links a resolved call to a module function; calls out of
// the module add nothing.
func (w *bodyWalker) addFuncEdge(fn *types.Func, pos token.Pos, dynamic bool) {
	if n := w.b.g.byFn[fn]; n != nil {
		w.owner.Out = append(w.owner.Out, Edge{Callee: n, Pos: pos, Dynamic: dynamic, Guarded: Guarded(w.stack, "")})
	}
}

// addBoundEdge resolves one bound function expression at a tracked
// call-through-variable site.
func (w *bodyWalker) addBoundEdge(bound ast.Expr, pos token.Pos) {
	switch x := ast.Unparen(bound).(type) {
	case *ast.FuncLit:
		// The literal's node was (or will be) created at its visit
		// site with a dynamic edge from this same body; nothing more
		// to add here.
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[x].(*types.Func); ok {
			w.addFuncEdge(fn, pos, true)
		}
	case *ast.SelectorExpr:
		if s, ok := w.p.Info.Selections[x]; ok {
			if fn, ok := s.Obj().(*types.Func); ok {
				w.addFuncEdge(fn, pos, true)
			}
			return
		}
		if fn, ok := w.p.Info.Uses[x.Sel].(*types.Func); ok {
			w.addFuncEdge(fn, pos, true)
		}
	}
}

// Guarded reports whether the last node of stack, the ancestor path
// root..node, sits in the then-block of an enclosing `if` whose
// condition tests `<guard> != nil`, directly or as an && conjunct (a
// disjunct does not count: either side of || can be false while the
// branch runs).  An empty guard accepts any `x != nil`, the
// optional-telemetry idiom; a named guard ("c.ring", as ExprPath
// renders it) accepts only that expression.  Requiring stack[i+1] to
// be the if's body rejects nodes in its condition, init statement or
// else branch.
func Guarded(stack []ast.Node, guard string) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if ok && stack[i+1] == ifs.Body && nilChecked(ifs.Cond, guard) {
			return true
		}
	}
	return false
}

// nilChecked reports whether cond tests `<guard> != nil` (either
// operand order) directly or as an && conjunct, under any parentheses.
func nilChecked(cond ast.Expr, guard string) bool {
	x, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if x.Op == token.LAND {
		return nilChecked(x.X, guard) || nilChecked(x.Y, guard)
	}
	is := func(e ast.Expr) bool { return guard == "" || ExprPath(e) == guard }
	return x.Op == token.NEQ && (isNil(x.Y) && is(x.X) || isNil(x.X) && is(x.Y))
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// ExprPath renders an identifier or selector chain ("c", "c.ring");
// any other expression shape yields "".
func ExprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := ExprPath(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}

// resolveInterfaceCalls turns the collected interface-dispatch sites
// into dynamic edges to every module method that could satisfy them.
func (b *builder) resolveInterfaceCalls(pkgs []*Pkg) {
	if len(b.ifaceCalls) == 0 {
		return
	}
	// All named types declared in the module, in deterministic order.
	var named []types.Type
	for _, p := range pkgs {
		if p.Types == nil {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, nm := range names {
			if tn, ok := scope.Lookup(nm).(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type())
			}
		}
	}
	for _, ic := range b.ifaceCalls {
		for _, t := range named {
			pt := types.NewPointer(t)
			var impl types.Type
			switch {
			case types.Implements(t, ic.iface):
				impl = t
			case types.Implements(pt, ic.iface):
				impl = pt
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, ic.name)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if n := b.g.byFn[fn]; n != nil {
				ic.from.Out = append(ic.from.Out, Edge{
					Callee: n, Pos: ic.pos, Dynamic: true, Guarded: ic.guarded,
				})
			}
		}
	}
}

// Children visits the direct AST children of n in source order.
func Children(n ast.Node, visit func(ast.Node)) {
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

// Step is one entry of a reachability result: the node plus the edge
// chain that first reached it (for diagnostics like "a -> b -> c").
type Step struct {
	Node    *Node
	From    *Step     // nil at a root
	CallPos token.Pos // position of the edge that reached Node
}

// Chain renders the root-to-node call chain as "root -> ... -> node",
// with IDs shortened by trimming the given module path prefix.
func (s *Step) Chain(modPath string) string {
	var ids []string
	for st := s; st != nil; st = st.From {
		ids = append(ids, shortID(st.Node.ID, modPath))
	}
	// Reverse into root-first order.
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return strings.Join(ids, " -> ")
}

func shortID(id, modPath string) string {
	if rest, ok := strings.CutPrefix(id, modPath+"/"); ok {
		return rest
	}
	if rest, ok := strings.CutPrefix(id, modPath+"."); ok {
		return rest
	}
	return id
}

// Reach walks the graph breadth-first from roots.  follow, when
// non-nil, filters edges (return false to prune); a nil follow takes
// every edge.  The result maps each reached node to the Step that first
// reached it; iterate g.Nodes to visit the result deterministically.
func (g *Graph) Reach(roots []*Node, follow func(Edge) bool) map[*Node]*Step {
	seen := map[*Node]*Step{}
	var queue []*Step
	for _, r := range roots {
		if r == nil || seen[r] != nil {
			continue
		}
		st := &Step{Node: r}
		seen[r] = st
		queue = append(queue, st)
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for _, e := range st.Node.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if seen[e.Callee] != nil {
				continue
			}
			next := &Step{Node: e.Callee, From: st, CallPos: e.Pos}
			seen[e.Callee] = next
			queue = append(queue, next)
		}
	}
	return seen
}
