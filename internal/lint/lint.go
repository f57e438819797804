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
	"go/token"
	"slices"
	"sort"
	"strings"
	"unicode"

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

// Package is one loaded, type-checked package; the call graph is built
// over the same values.
type Package = callgraph.Pkg

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
	// transitive analyzers (determinism, hotalloc).
	cg *callgraph.Graph
}

// Callgraph builds (once) and returns the approximate whole-program
// call graph over the loaded packages.
func (p *Program) Callgraph() *callgraph.Graph {
	if p.cg == nil {
		p.cg = callgraph.Build(p.Pkgs)
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

// ignoreDirective parses one comment, as go/ast holds it (markers
// included), into the rule names it silences.  Only a line comment
// "//simlint:ignore a b -- reason" is a directive, with whitespace or
// the end of the comment after "ignore".
func ignoreDirective(comment string) []string {
	rest, ok := strings.CutPrefix(comment, "//simlint:ignore")
	if !ok || (rest != "" && !unicode.IsSpace(rune(rest[0]))) {
		return nil
	}
	rest, _, _ = strings.Cut(rest, "--")
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
					rules := ignoreDirective(c.Text)
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
// simulation code.  Every other loaded package under internal/ is a
// simulator package, so a newly added one is linted by default instead
// of silently skipped.  determinism checks every file of a simulator
// package, and floatcmp and traceguard check only those; determinism
// also follows the call graph from SimRoots into any package, these
// included.  hotalloc and atomicplain ignore the list: they reason
// from annotations and calls over every loaded package, including
// cmd/* and the module root.
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

// ConcurrencyAllowed lists the module-relative packages permitted to
// use goroutines, channels, select, and the sync package.  This is the
// explicit parallelism boundary: internal/sweep runs whole
// *independent* simulations concurrently and never shares state
// between them, so concurrency there cannot perturb any single run's
// determinism.  Every other simulator package stays single-threaded,
// and the non-concurrency determinism rules (map ranges, wall clock,
// global RNG, environment reads) still apply to allowlisted packages.
var ConcurrencyAllowed = []string{
	"internal/sweep",
}

// rel returns a module package's import path relative to the module
// path; the module root's own path comes back unchanged.
func (p *Program) rel(pkgPath string) string {
	r, _ := strings.CutPrefix(pkgPath, p.ModPath+"/")
	return r
}

// simPackage reports whether a loaded package is simulation code: under
// internal/ and not on NonSimPackages.
func (p *Program) simPackage(pkgPath string) bool {
	r := p.rel(pkgPath)
	return strings.HasPrefix(r, "internal/") && !slices.Contains(NonSimPackages, r)
}

// concurrencyAllowed reports whether a package is on ConcurrencyAllowed.
func (p *Program) concurrencyAllowed(pkgPath string) bool {
	return slices.Contains(ConcurrencyAllowed, p.rel(pkgPath))
}

// SimRoots names the simulation entry points, as callgraph FuncIDs
// relative to the module path: everything transitively reachable from
// these must stay deterministic.  TestRepoIsClean checks that every
// entry resolves, since determinism skips roots it cannot find.
var SimRoots = []string{
	"internal/core.(Core).Run",
	"internal/core.(Core).Cycle",
	".Run",
	".RunContext",
	".RunSampled",
	".RunSampledContext",
	"internal/sample.Run",
}

// simRootIDs resolves SimRoots to absolute callgraph FuncIDs.
func simRootIDs(modPath string) []string {
	roots := make([]string, len(SimRoots))
	for i, r := range SimRoots {
		roots[i] = modPath + r
		if !strings.HasPrefix(r, ".") {
			roots[i] = modPath + "/" + r
		}
	}
	return roots
}

// Default returns the full analyzer suite.  The analyzers have no
// settings: each reads its fixed targets (the simulator packages, the
// stats and config structs, the telemetry hooks, SimRoots) from the
// Program it checks, relative to the module path.
func Default() []Analyzer {
	return []Analyzer{
		&Determinism{},
		&FloatCmp{},
		&DeadStat{},
		&DeadKnob{},
		&TraceGuard{},
		&HotAlloc{},
		&AtomicPlain{},
	}
}
