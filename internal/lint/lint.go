// Package lint is a stdlib-only static-analysis engine (go/parser +
// go/types + go/ast, no module dependencies) with simulator-specific
// analyzers.  The simulator's verification story rests on properties no
// generic linter enforces: the model must be fully deterministic (same
// inputs, byte-identical statistics and commit streams) and every
// statistics counter and configuration knob must be live.  The
// analyzers here make violations of those properties un-mergeable; see
// cmd/recyclelint for the CLI driver and the "Verification & static
// analysis" sections of README.md and DESIGN.md for the rule catalog.
//
// Findings can be suppressed per line with a comment of the form
//
//	//simlint:ignore <rule> [<rule>...] [-- reason]
//
// placed on the offending line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"recyclesim/internal/lint/callgraph"
)

// Diagnostic is one analyzer finding, anchored to a source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line: form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Analyzer is one lint rule.  Check inspects the whole loaded module at
// once so rules can reason across packages (e.g. "this stats field is
// never written outside its package").
type Analyzer interface {
	Name() string
	Doc() string
	Check(prog *Program) []Diagnostic
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is the whole loaded module, packages sorted by import path so
// every run visits them in the same order.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string
	Pkgs    []*Package

	// suppress maps filename -> line -> rule names ignored on that
	// line (populated from //simlint:ignore comments).
	suppress map[string]map[int]map[string]bool

	// cg memoizes the whole-program call graph shared by the
	// transitive analyzers (puresim, hotalloc).
	cg *callgraph.Graph
}

// Callgraph builds (once) and returns the approximate whole-program
// call graph over the loaded packages.
func (p *Program) Callgraph() *callgraph.Graph {
	if p.cg == nil {
		pkgs := make([]*callgraph.Pkg, 0, len(p.Pkgs))
		for _, pkg := range p.Pkgs {
			pkgs = append(pkgs, &callgraph.Pkg{
				Path: pkg.Path, Types: pkg.Pkg, Info: pkg.Info, Files: pkg.Files,
			})
		}
		p.cg = callgraph.Build(pkgs)
	}
	return p.cg
}

// Lookup returns the loaded package with the given import path.
func (p *Program) Lookup(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// Position resolves a token.Pos against the program's file set.
func (p *Program) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// ignoreDirective parses a "simlint:ignore a b -- reason" comment text
// (comment markers already stripped) into rule names.
func ignoreDirective(text string) []string {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "simlint:ignore") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "simlint:ignore"))
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	return strings.Fields(rest)
}

// buildSuppressions scans every comment of every file for
// simlint:ignore directives.  A directive covers its own line and the
// line below it, so both trailing and leading comment styles work.
func (p *Program) buildSuppressions() {
	p.suppress = make(map[string]map[int]map[string]bool)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
					rules := ignoreDirective(text)
					if len(rules) == 0 {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					byLine := p.suppress[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						p.suppress[pos.Filename] = byLine
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := byLine[line]
						if set == nil {
							set = make(map[string]bool)
							byLine[line] = set
						}
						for _, r := range rules {
							set[r] = true
						}
					}
				}
			}
		}
	}
}

// Suppressed reports whether the diagnostic is covered by an ignore
// directive.
func (p *Program) Suppressed(d Diagnostic) bool {
	if p.suppress == nil {
		p.buildSuppressions()
	}
	byLine := p.suppress[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[d.Pos.Line][d.Rule]
}

// Run executes the analyzers over the program, filters suppressed
// findings, and returns the rest sorted by position then rule.
func Run(prog *Program, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Check(prog) {
			if !prog.Suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// NonSimPackages is the explicit opt-out list: module-relative package
// paths under internal/ that are host-side tooling rather than
// simulation code, and therefore exempt from the per-package simulator
// scope (determinism, floatcmp, traceguard).  Everything else under
// internal/ is in scope *by discovery* (see SimPackages), so a newly
// added package is linted by default instead of silently skipped.
// The whole-program analyzers (puresim, hotalloc, atomicplain) ignore
// this list: they reason from entry points and annotations over every
// loaded package, including cmd/* and the module root.
var NonSimPackages = []string{
	"internal/backoff",        // fleet retry delays: timer + ctx select by design
	"internal/fleet",          // distributed execution: HTTP + leases + wall clock by design
	"internal/fleet/chaos",    // fault-injection harness for the fleet tests
	"internal/jobs",           // job service: HTTP server + goroutines by design
	"internal/lint",           // the analysis engine itself (walks dirs, maps)
	"internal/lint/callgraph", // ditto
	"internal/obs/server",     // live observability: wall clock + goroutines by design
	"internal/obs/trace",      // request tracing: wall clock + rand IDs by design
	"internal/store",          // host-side persistence: filesystem + hashing
}

// SimPackages discovers the module-relative package paths whose code
// runs during (or feeds) a simulation and therefore must be
// deterministic: every directory under internal/ holding non-test Go
// files, minus the NonSimPackages opt-outs.  The host-side tooling
// (cmd/*, examples/*, the module root) is exempt from the per-package
// scope but still covered by the whole-program analyzers.
func SimPackages(modRoot string) []string {
	var out []string
	root := filepath.Join(modRoot, "internal")
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(modRoot, filepath.Dir(path))
		if err != nil {
			return nil
		}
		pkg := filepath.ToSlash(rel)
		for _, skip := range NonSimPackages {
			if pkg == skip {
				return nil
			}
		}
		if len(out) == 0 || out[len(out)-1] != pkg {
			out = append(out, pkg)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// ConcurrencyAllowed lists the module-relative simulator packages
// permitted to use goroutines, channels, select, and the sync package.
// This is the explicit parallelism boundary: internal/sweep runs whole
// *independent* simulations concurrently and never shares state
// between them, so concurrency there cannot perturb any single run's
// determinism.  Every other SimPackages entry stays single-threaded,
// and the non-concurrency determinism rules (map ranges, wall clock,
// global RNG) still apply to allowlisted packages.
var ConcurrencyAllowed = []string{
	"internal/sweep",
}

// ConcurrencyScope reports whether a package import path may use
// concurrency constructs under the determinism analyzer.
func ConcurrencyScope(modPath string) func(pkgPath string) bool {
	return func(pkgPath string) bool {
		for _, s := range ConcurrencyAllowed {
			if pkgPath == modPath+"/"+s {
				return true
			}
		}
		return false
	}
}

// ScopeFor builds a scope predicate from an explicit package list.
func ScopeFor(modPath string, pkgs []string) func(pkgPath string) bool {
	set := make(map[string]bool, len(pkgs))
	for _, s := range pkgs {
		set[modPath+"/"+s] = true
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}

// DefaultScope reports whether a package import path is one of the
// module's simulator packages, discovered by walking internal/ under
// the module root.
func DefaultScope(modPath, modRoot string) func(pkgPath string) bool {
	return ScopeFor(modPath, SimPackages(modRoot))
}

// AllScope includes every loaded package; the analyzer tests use it on
// fixture modules.
func AllScope(string) bool { return true }

// PureSimRoots names the simulation entry points, as callgraph FuncIDs
// relative to the module path: everything transitively reachable from
// these must stay deterministic.  TestRepoIsClean checks that every
// entry resolves, since puresim skips roots it cannot find.
var PureSimRoots = []string{
	"internal/core.(Core).Run",
	"internal/core.(Core).Cycle",
	".Run",
	".RunContext",
	".RunSampled",
	".RunSampledContext",
	"internal/sample.Run",
}

// pureSimRootIDs resolves PureSimRoots to absolute callgraph FuncIDs.
func pureSimRootIDs(modPath string) []string {
	roots := make([]string, len(PureSimRoots))
	for i, r := range PureSimRoots {
		roots[i] = modPath + r
		if !strings.HasPrefix(r, ".") {
			roots[i] = modPath + "/" + r
		}
	}
	return roots
}

// Default returns the full analyzer suite with the canonical scopes for
// the loaded program.
func Default(prog *Program) []Analyzer {
	modPath := prog.ModPath
	scope := DefaultScope(modPath, prog.ModRoot)
	det := NewDeterminism(scope)
	det.ConcurrencyOK = ConcurrencyScope(modPath)
	return []Analyzer{
		det,
		NewFloatCmp(scope),
		NewDeadStat(modPath+"/internal/stats", "Sim", modPath),
		NewDeadKnob(modPath+"/internal/config", []string{"Machine", "Features"},
			[]string{modPath + "/internal/core", modPath + "/internal/config"}),
		NewTraceGuard(scope, []GuardRule{
			{RecvType: modPath + "/internal/core.Core", Method: "trace", GuardField: "debugTrace"},
			{RecvType: modPath + "/internal/obs.Ring", Method: "Record"},
			{RecvType: modPath + "/internal/core.Core", Method: "pipeTrace", GuardField: "ptrace"},
			{RecvType: modPath + "/internal/obs/pipetrace.Recorder", Method: "*"},
		}),
		NewPureSim(pureSimRootIDs(modPath), ConcurrencyScope(modPath)),
		NewHotAlloc(),
		NewAtomicPlain(),
	}
}
