package lint

import "go/ast"

// AtomicPlain flags every use of a sync/atomic package function
// (atomic.AddInt64, atomic.LoadUint32, ...).  A field handed to those
// by address can still be read or written plainly next to them: a data
// race the race detector only sees on the schedules that collide.  The
// typed wrappers (atomic.Int64, atomic.Pointer, ...) cannot be accessed
// except through their methods, so the mixed access cannot be written
// at all; the rule requires them.
type AtomicPlain struct{}

// Name implements Analyzer.
func (*AtomicPlain) Name() string { return "atomicplain" }

// Doc implements Analyzer.
func (*AtomicPlain) Doc() string {
	return "flags sync/atomic package functions; use the typed atomic wrappers"
}

// Check implements Analyzer.
func (ap *AtomicPlain) Check(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if path, name := pkgFunc(pkg.Info, id); path == "sync/atomic" {
						out = append(out, Diagnostic{Pos: prog.Position(id.Pos()), Rule: ap.Name(),
							Msg: sprintf("atomic.%s on a plain variable invites plain accesses to it elsewhere; use a typed atomic (atomic.Int64, ...)", name)})
					}
				}
				return true
			})
		}
	}
	return out
}
