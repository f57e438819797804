package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DeadStat audits the statistics structure stats.Sim:
//
//   - every scalar counter field must be written somewhere outside the
//     stats package, otherwise it is a dead counter silently reporting
//     zero in every table;
//   - counters may only grow: ++, += and (annotated) snapshot
//     assignments are allowed, --, -= and friends are findings.  The
//     stats package's own Sub method is exempt: it is the deliberate
//     snapshot-delta helper (interval attribution in sampled runs),
//     not a counter mutation on a live simulation;
//   - every scalar field must appear in the accumulator method (Add),
//     otherwise multi-run aggregation silently drops it.
//
// Non-scalar fields (slices such as per-program commit counts) are
// exempt from the Add rule — aggregation across permutations is
// intentionally scalar-only — but still must be written externally.
type DeadStat struct{}

// Name implements Analyzer.
func (*DeadStat) Name() string { return "deadstat" }

// Doc implements Analyzer.
func (*DeadStat) Doc() string {
	return "flags statistics counters that are never written, are decremented, or are missing from the accumulator"
}

// Check implements Analyzer.
func (ds *DeadStat) Check(prog *Program) []Diagnostic {
	statsPath := prog.ModPath + "/internal/stats"
	statsPkg := prog.Lookup(statsPath)
	if statsPkg == nil {
		return nil
	}
	obj := statsPkg.Types.Scope().Lookup("Sim")
	if obj == nil {
		return []Diagnostic{{
			Pos:  prog.Position(statsPkg.Files[0].Pos()),
			Rule: ds.Name(),
			Msg:  fmt.Sprintf("stats package %s has no struct Sim", statsPath),
		}}
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}

	fields := map[types.Object]*types.Var{}
	order := make([]*types.Var, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fields[f] = f
		order = append(order, f)
	}

	written := map[types.Object]bool{} // written outside the stats package
	inAdd := map[types.Object]bool{}   // referenced inside the accumulator method
	var decremented []Diagnostic       // shrinking writes, any package
	var plainAssigned []Diagnostic     // non-increment writes to scalar fields outside stats

	for _, pkg := range prog.Pkgs {
		internal := pkg.Path == statsPath
		// The stats package's Sub method is the sanctioned snapshot-delta
		// helper; decrements inside it are its whole point.
		var subRanges [][2]token.Pos
		if internal {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Sub" && fd.Recv != nil {
						subRanges = append(subRanges, [2]token.Pos{fd.Pos(), fd.End()})
					}
				}
			}
		}
		inSub := func(pos token.Pos) bool {
			for _, r := range subRanges {
				if pos >= r[0] && pos < r[1] {
					return true
				}
			}
			return false
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if internal {
					if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Add" && fd.Recv != nil {
						ast.Inspect(fd, func(m ast.Node) bool {
							if sel, ok := m.(*ast.SelectorExpr); ok {
								if fobj := pkg.Info.Uses[sel.Sel]; fobj != nil && fields[fobj] != nil {
									inAdd[fobj] = true
								}
							}
							return true
						})
					}
				}
				switch n := n.(type) {
				case *ast.IncDecStmt:
					fobj := ds.fieldOf(pkg, n.X, fields)
					if fobj == nil {
						return true
					}
					if !internal {
						written[fobj] = true
					}
					if n.Tok == token.DEC && !inSub(n.Pos()) {
						decremented = append(decremented, Diagnostic{
							Pos:  prog.Position(n.Pos()),
							Rule: ds.Name(),
							Msg:  fmt.Sprintf("statistics counter Sim.%s is decremented; counters must be monotonic", fobj.Name()),
						})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						fobj := ds.fieldOf(pkg, lhs, fields)
						if fobj == nil {
							continue
						}
						if !internal {
							written[fobj] = true
						}
						switch n.Tok {
						case token.ADD_ASSIGN:
						case token.ASSIGN, token.DEFINE:
							if !internal && isScalar(fields[fobj]) && !isIndexed(lhs) {
								plainAssigned = append(plainAssigned, Diagnostic{
									Pos:  prog.Position(n.Pos()),
									Rule: ds.Name(),
									Msg:  fmt.Sprintf("statistics counter Sim.%s overwritten with =; counters must only grow (annotate intentional snapshots)", fobj.Name()),
								})
							}
						default:
							if inSub(n.Pos()) {
								continue
							}
							decremented = append(decremented, Diagnostic{
								Pos:  prog.Position(n.Pos()),
								Rule: ds.Name(),
								Msg:  fmt.Sprintf("statistics counter Sim.%s modified with %s; counters must be monotonic", fobj.Name(), n.Tok),
							})
						}
					}
				}
				return true
			})
		}
	}

	var out []Diagnostic
	for _, f := range order {
		if !written[f] {
			out = append(out, Diagnostic{
				Pos:  prog.Position(f.Pos()),
				Rule: ds.Name(),
				Msg:  fmt.Sprintf("statistics field Sim.%s is never written by the simulator: dead counter", f.Name()),
			})
		}
		if isScalar(f) && !inAdd[f] {
			out = append(out, Diagnostic{
				Pos:  prog.Position(f.Pos()),
				Rule: ds.Name(),
				Msg:  fmt.Sprintf("statistics field Sim.%s is missing from (*Sim).Add: aggregation drops it", f.Name()),
			})
		}
	}
	out = append(out, decremented...)
	out = append(out, plainAssigned...)
	return out
}

// fieldOf resolves an assignment target down to a tracked stats field,
// looking through parens and index expressions (PerProgram[i]++ is a
// write to PerProgram).
func (ds *DeadStat) fieldOf(pkg *Package, e ast.Expr, fields map[types.Object]*types.Var) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if fobj := pkg.Info.Uses[x.Sel]; fobj != nil && fields[fobj] != nil {
				return fobj
			}
			return nil
		default:
			return nil
		}
	}
}

func isScalar(f *types.Var) bool {
	b, ok := f.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func isIndexed(e ast.Expr) bool {
	_, ok := e.(*ast.IndexExpr)
	return ok
}
