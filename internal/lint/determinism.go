package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"recyclesim/internal/lint/callgraph"
)

// Determinism flags constructs that can make a simulation run
// non-reproducible.  One construct table (hazard) is applied in two
// places:
//
//   - every file of a simulator package (see NonSimPackages), package-
//     level code included, plus a per-file check that the package does
//     not import sync or sync/atomic;
//   - every function reachable from SimRoots over the whole-program
//     call graph, in any package: the module-root facade, cmd/ helpers
//     and the opted-out packages too.  These findings carry the
//     root-to-site call chain, and every edge is followed, since the
//     run must stay deterministic with telemetry on.
//
// A site that is both is reported once, with the chain.  The table:
//
//   - `for range` over a map: Go randomizes map iteration order, so any
//     such loop whose effect depends on visit order silently breaks the
//     "same config, byte-identical results" property.  A loop is
//     accepted without annotation only when it is provably
//     order-independent: every statement in its body stores through a
//     map index keyed by the unmodified range key, so each iteration
//     touches a distinct slot.
//   - wall-clock reads (time.Now and friends),
//   - the global math/rand source (unseeded, process-random),
//   - ambient process state (os.Getenv and friends),
//   - goroutines, channel receives, and select: the model is
//     single-threaded by design; concurrency would introduce
//     scheduling-dependent results.  Packages on ConcurrencyAllowed are
//     exempt from these (and from the sync import check) only.
//
// The call graph does not resolve calls through struct fields of
// function type or callbacks injected from outside the module (see
// internal/lint/callgraph), so code reached only that way escapes the
// reachable half; inside a simulator package the per-file half still
// sees it, and the runtime determinism witnesses are the backstop
// elsewhere.
type Determinism struct{}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (*Determinism) Doc() string {
	return "flags map-order-dependent loops, wall-clock, global-RNG and environment reads, and concurrency in simulator packages and in code reachable from the simulation entry points"
}

// timeFuncs are the time-package functions that read the wall clock or
// schedule against it.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true, "AfterFunc": true,
}

// randConstructors are the math/rand functions that do NOT touch the
// package-global source; deterministic seeded generators built from
// them are fine.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// envFuncs are the os-package functions that read ambient process
// state a simulation result must never depend on.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Hostname": true,
	"Getpid": true, "UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
}

// Check implements Analyzer.
func (d *Determinism) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	reported := map[token.Pos]bool{}
	g := prog.Callgraph()
	var roots []*callgraph.Node
	for _, id := range simRootIDs(prog.ModPath) {
		if n := g.Lookup(id); n != nil {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		out = append(out, Diagnostic{
			Pos: prog.Position(token.NoPos), Rule: d.Name(),
			Msg: sprintf("no simulation entry point resolved from %v; the reachable half would silently pass", SimRoots),
		})
	}
	reach := g.Reach(roots, nil)
	for _, n := range g.Nodes {
		st := reach[n]
		if st == nil || n.Body() == nil {
			continue
		}
		chain := " (reachable via " + st.Chain(prog.ModPath) + ")"
		concOK := prog.concurrencyAllowed(n.Pkg.Path)
		// Nested literals are their own nodes and inspect themselves.
		ast.Inspect(n.Body(), func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if msg := hazard(n.Pkg.Info, x, concOK); msg != "" {
				reported[x.Pos()] = true
				out = append(out, Diagnostic{Pos: prog.Position(x.Pos()), Rule: d.Name(), Msg: msg + chain})
			}
			return true
		})
	}
	for _, pkg := range prog.Pkgs {
		if !prog.simPackage(pkg.Path) {
			continue
		}
		concOK := prog.concurrencyAllowed(pkg.Path)
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if p := impPath(imp); !concOK && (p == "sync" || p == "sync/atomic") {
					out = append(out, Diagnostic{Pos: prog.Position(imp.Pos()), Rule: d.Name(),
						Msg: sprintf("import of %s: the simulator is single-threaded and must stay deterministic", p)})
				}
			}
			ast.Inspect(f, func(x ast.Node) bool {
				if msg := hazard(pkg.Info, x, concOK); msg != "" && !reported[x.Pos()] {
					out = append(out, Diagnostic{Pos: prog.Position(x.Pos()), Rule: d.Name(), Msg: msg})
				}
				return true
			})
		}
	}
	return out
}

// hazard is the construct table: the finding for one node, "" if the
// node is deterministic.  concOK exempts the concurrency constructs.
func hazard(info *types.Info, n ast.Node, concOK bool) string {
	switch n := n.(type) {
	case *ast.RangeStmt:
		tv, ok := info.Types[n.X]
		if !ok {
			return ""
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap || mapRangeOrderIndependent(info, n) {
			return ""
		}
		return sprintf("range over map %s: iteration order is randomized; sort the keys, or annotate if provably order-independent", types.TypeString(tv.Type, nil))
	case *ast.GoStmt:
		if !concOK {
			return "go statement: scheduling order is nondeterministic"
		}
	case *ast.SelectStmt:
		if !concOK {
			return "select statement: case choice is nondeterministic"
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !concOK {
			return "channel receive: delivery order is nondeterministic"
		}
	case *ast.Ident:
		switch pkg, name := pkgFunc(info, n); {
		case pkg == "time" && timeFuncs[name]:
			return sprintf("time.%s reads the wall clock; simulated time is the cycle counter", name)
		case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
			return sprintf("rand.%s uses the global random source; use a seeded rand.New(rand.NewSource(...))", name)
		case pkg == "os" && envFuncs[name]:
			return sprintf("os.%s reads ambient process state", name)
		}
	}
	return ""
}

// pkgFunc resolves an identifier naming a package-level function (not
// a method) to its package path and name, or "" and "" otherwise.
func pkgFunc(info *types.Info, id *ast.Ident) (pkgPath, name string) {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// mapRangeOrderIndependent recognizes the one map-range shape the
// analyzer can prove safe without annotation: a pure map-to-map copy,
// where every statement of the body is `dst[k] = v`-style — a single
// assignment storing through a map index whose key expression is
// exactly the range-key variable.  Distinct source keys then write
// distinct destination slots, so the result cannot depend on visit
// order.
func mapRangeOrderIndependent(info *types.Info, rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	keyObj := info.Defs[key]
	if keyObj == nil || len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		idx, ok := as.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return false
		}
		if tv, ok := info.Types[idx.X]; !ok {
			return false
		} else if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return false
		}
		keyIdent, ok := idx.Index.(*ast.Ident)
		if !ok || info.Uses[keyIdent] != keyObj {
			return false
		}
	}
	return true
}

func impPath(imp *ast.ImportSpec) string {
	p := imp.Path.Value
	return p[1 : len(p)-1]
}
