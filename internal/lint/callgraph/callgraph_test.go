package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// load type-checks one synthetic package and returns its Pkg.  src must
// not import anything beyond the standard library (imports go through
// the source importer, which is slow — the fixture tests in
// internal/lint cover external calls).
func load(t *testing.T, src string) *Pkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Pkg{Path: "p", Types: pkg, Info: info, Files: []*ast.File{f}}
}

// edges renders a node's outgoing edges as "callee" / "callee(dyn)" /
// "callee(guard)" strings.
func edges(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		s := e.Callee.ID
		if e.Dynamic {
			s += "(dyn)"
		}
		if e.Guarded {
			s += "(guard)"
		}
		out = append(out, s)
	}
	return out
}

func hasEdge(t *testing.T, n *Node, want string) {
	t.Helper()
	for _, s := range edges(n) {
		if s == want {
			return
		}
	}
	t.Errorf("node %s: missing edge %q; have %v", n.ID, want, edges(n))
}

func noEdgeTo(t *testing.T, n *Node, callee string) {
	t.Helper()
	for _, s := range edges(n) {
		if strings.HasPrefix(s, callee) {
			t.Errorf("node %s: unexpected edge %s", n.ID, s)
		}
	}
}

const src = `package p

type Ring struct{ buf []int }

func (r *Ring) Record(v int) { r.buf[0] = v }

type Doer interface{ Do() }

type A struct{}
func (A) Do() { leafA() }

type B struct{}
func (*B) Do() { leafB() }

func leafA() {}
func leafB() {}
func helper() { leafA() }

type Core struct{ ring *Ring }

func (c *Core) Cycle(d Doer) {
	helper()            // static call
	d.Do()              // interface dispatch
	f := helper
	f()                 // tracked function value
	g := func() { leafB() }
	g()                 // tracked literal
	each([]int{1}, func(int) { leafA() }) // literal passed as callback
	if c.ring != nil {
		c.ring.Record(1) // guarded method call
	}
	use(helper)         // function referenced as a value
	func() { leafB() }() // immediately invoked literal
}

func each(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

func use(f func()) { _ = f }

//recycle:hotpath
func Hot() { helper() }
`

func TestBuildEdges(t *testing.T) {
	g := Build([]*Pkg{load(t, src)})

	cycle := g.Lookup("p.(Core).Cycle")
	if cycle == nil {
		t.Fatalf("no node for (Core).Cycle; nodes: %v", ids(g))
	}
	hasEdge(t, cycle, "p.helper")               // static
	hasEdge(t, cycle, "p.(A).Do(dyn)")          // interface dispatch to value receiver
	hasEdge(t, cycle, "p.(B).Do(dyn)")          // interface dispatch to pointer receiver
	hasEdge(t, cycle, "p.(Ring).Record(guard)") // nil-guarded call
	hasEdge(t, cycle, "p.(Core).Cycle$1(dyn)")  // g := func(){...}
	hasEdge(t, cycle, "p.(Core).Cycle$2(dyn)")  // callback literal
	hasEdge(t, cycle, "p.(Core).Cycle$3")       // immediately-invoked literal: static

	// The literal nodes carry their own edges.
	hasEdge(t, g.Lookup("p.(Core).Cycle$1"), "p.leafB")
	hasEdge(t, g.Lookup("p.(Core).Cycle$2"), "p.leafA")

	// use(helper) takes helper's value: a dynamic edge, not a call.
	found := false
	for _, e := range cycle.Out {
		if e.Callee.ID == "p.helper" && e.Dynamic {
			found = true
		}
	}
	if !found {
		t.Errorf("missing dynamic reference edge to p.helper; have %v", edges(cycle))
	}

	// Methods never dispatched through the interface still exist as
	// nodes but gain no spurious callers.
	noEdgeTo(t, g.Lookup("p.helper"), "p.(Core).Cycle")
}

func TestReachAndChain(t *testing.T) {
	g := Build([]*Pkg{load(t, src)})
	cycle := g.Lookup("p.(Core).Cycle")

	reach := g.Reach([]*Node{cycle}, nil)
	for _, id := range []string{"p.helper", "p.leafA", "p.leafB", "p.(A).Do", "p.(Ring).Record"} {
		if reach[g.Lookup(id)] == nil {
			t.Errorf("%s not reached from Cycle", id)
		}
	}
	if reach[g.Lookup("p.Hot")] != nil {
		t.Errorf("p.Hot should not be reachable from Cycle")
	}

	// Pruning guarded edges removes the Record subtree.
	unguarded := g.Reach([]*Node{cycle}, func(e Edge) bool { return !e.Guarded })
	if unguarded[g.Lookup("p.(Ring).Record")] != nil {
		t.Errorf("guarded Record edge was not pruned")
	}

	// Chain reconstruction: leafA is reached via some intermediate.
	st := reach[g.Lookup("p.leafA")]
	chain := st.Chain("p")
	if !strings.HasPrefix(chain, "(Core).Cycle") || !strings.HasSuffix(chain, "leafA") {
		t.Errorf("unexpected chain %q", chain)
	}
}

func TestDirective(t *testing.T) {
	g := Build([]*Pkg{load(t, src)})
	if !g.Lookup("p.Hot").Directive("recycle:hotpath") {
		t.Errorf("Hot should carry recycle:hotpath")
	}
	if g.Lookup("p.helper").Directive("recycle:hotpath") {
		t.Errorf("helper should not carry recycle:hotpath")
	}
}

func ids(g *Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.ID)
	}
	return out
}

// TestGuarded pins the one nil-guard rule that guarded call-graph
// edges, hotalloc and traceguard share: the node must sit in the
// then-block of an if whose condition tests `<guard> != nil` directly
// or as an && conjunct.  Each body holds one call to mark, the node
// checked.
func TestGuarded(t *testing.T) {
	cases := []struct {
		body  string
		guard string
		want  bool
	}{
		{"if c.ring != nil { mark() }", "c.ring", true},
		{"if c.ring != nil { mark() }", "", true},
		{"if nil != c.ring { mark() }", "c.ring", true},
		{"if ok && c.ring != nil { mark() }", "c.ring", true},
		{"if c.ring != nil && ok { mark() }", "", true},
		{"if (ok && (c.ring != nil)) { mark() }", "c.ring", true},
		{"if (c).ring != nil { for { mark() } }", "c.ring", true},
		{"if c.ptrace != nil { mark() }", "c.ring", false},
		{"if c.ptrace != nil { mark() }", "", true},
		{"if ok || c.ring != nil { mark() }", "c.ring", false},
		{"if ok || c.ring != nil { mark() }", "", false},
		{"if c.ring == nil { mark() }", "", false},
		{"if c.ring != nil && mark() {}", "c.ring", false},
		{"if c.ring != nil && mark() {}", "", false},
		{"if x := mark(); c.ring != nil {}", "", false},
		{"if c.ring != nil {} else { mark() }", "c.ring", false},
		{"if c.ring != nil {} else { mark() }", "", false},
		{"mark()", "", false},
	}
	for _, tc := range cases {
		f, err := parser.ParseFile(token.NewFileSet(), "g.go", "package p; func f() { "+tc.body+" }", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		var stack, at []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok && ExprPath(call.Fun) == "mark" {
				at = append([]ast.Node(nil), stack...)
			}
			return true
		})
		if at == nil {
			t.Fatalf("%s: no call to mark", tc.body)
		}
		if got := Guarded(at, tc.guard); got != tc.want {
			t.Errorf("Guarded(%q, guard %q) = %v, want %v", tc.body, tc.guard, got, tc.want)
		}
	}
}
