package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureProg memoizes the type-checked fixture module; loading it
// compiles part of the standard library from source, which is too slow
// to repeat per test.
var fixtureProg *Program

func loadFixture(t *testing.T) *Program {
	t.Helper()
	if fixtureProg == nil {
		prog, err := Load(filepath.Join("testdata", "fixture"))
		if err != nil {
			t.Fatalf("loading fixture module: %v", err)
		}
		fixtureProg = prog
	}
	return fixtureProg
}

// markers scans the fixture sources for "// <tag>:<rule>" trailing
// comments and returns the expected "file:line:rule" keys, where file
// is the base filename (fixture file names are unique).
func markers(t *testing.T, tag string) []string {
	t.Helper()
	var out []string
	root := filepath.Join("testdata", "fixture")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			rest := line
			for {
				idx := strings.Index(rest, "// "+tag+":")
				if idx < 0 {
					break
				}
				rest = rest[idx+len("// "+tag+":"):]
				rule := rest
				if sp := strings.IndexAny(rule, " \t"); sp >= 0 {
					rule = rule[:sp]
				}
				out = append(out, key(filepath.Base(path), i+1, rule))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixture markers: %v", err)
	}
	if len(out) == 0 {
		t.Fatalf("no %q markers found under %s", tag, root)
	}
	sort.Strings(out)
	return out
}

func key(file string, line int, rule string) string {
	return file + ":" + itoa(line) + ":" + rule
}

func itoa(n int) string { return sprintf("%d", n) }

func diagKeys(diags []Diagnostic) []string {
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		out = append(out, key(filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	sort.Strings(out)
	return out
}

// TestAnalyzersOnFixture is the golden test: the full default suite
// over the fixture module must report exactly the marked findings —
// every want: marker (positives) and nothing else (negatives,
// including the suppressed site).
func TestAnalyzersOnFixture(t *testing.T) {
	prog := loadFixture(t)
	got := diagKeys(Run(prog, Default()))
	want := markers(t, "want")
	if !equal(got, want) {
		t.Errorf("diagnostic mismatch\n got: %s\nwant: %s", strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
}

// TestAnalyzersIndividually re-runs each analyzer alone and checks it
// reports exactly the markers carrying its rule name, so a rule cannot
// lean on another analyzer's findings to pass the combined test.
func TestAnalyzersIndividually(t *testing.T) {
	prog := loadFixture(t)
	for _, a := range Default() {
		t.Run(a.Name(), func(t *testing.T) {
			var want []string
			for _, k := range markers(t, "want") {
				if strings.HasSuffix(k, ":"+a.Name()) {
					want = append(want, k)
				}
			}
			got := diagKeys(Run(prog, []Analyzer{a}))
			if !equal(got, want) {
				t.Errorf("diagnostic mismatch\n got: %s\nwant: %s", strings.Join(got, "\n      "), strings.Join(want, "\n      "))
			}
		})
	}
}

// TestSuppression checks the ignore-directive machinery itself: every
// checked: marker site must be reported by the raw analyzer that owns
// its rule and filtered by Run.  The hotpath fixture carries one
// directive naming two rules (determinism and hotalloc), so this also
// covers multi-rule `//simlint:ignore a b` directives.
func TestSuppression(t *testing.T) {
	prog := loadFixture(t)
	suppressed := markers(t, "checked")
	var raw []Diagnostic
	for _, a := range Default() {
		raw = append(raw, a.Check(prog)...)
	}
	rawKeys := diagKeys(raw)
	for _, want := range suppressed {
		if !contains(rawKeys, want) {
			t.Errorf("raw Check missed suppressed site %s; got %v", want, rawKeys)
		}
	}
	filtered := diagKeys(Run(prog, Default()))
	for _, want := range suppressed {
		if contains(filtered, want) {
			t.Errorf("Run failed to suppress %s despite simlint:ignore directive", want)
		}
	}
}

// TestRepoIsClean encodes the acceptance criterion that the shipped
// tree lints clean: the default suite over this module itself must
// report nothing, and every SimRoots entry must name a function that
// exists (determinism skips unresolved roots, so a renamed entry point
// would otherwise shrink the analysed set silently).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	prog, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	g := prog.Callgraph()
	for _, id := range simRootIDs(prog.ModPath) {
		if g.Lookup(id) == nil {
			t.Errorf("SimRoots entry %s does not resolve in the call graph", id)
		}
	}
	if diags := Run(prog, Default()); len(diags) > 0 {
		msgs := make([]string, len(diags))
		for i, d := range diags {
			msgs[i] = d.String()
		}
		t.Errorf("repository has %d lint finding(s):\n%s", len(diags), strings.Join(msgs, "\n"))
	}
}

// TestCatchMatrix runs each analyzer alone over the fixture and fails
// when one flags no file:line site that every other analyzer misses: a
// rule whose catches are a subset of the others' has not earned its
// lines.  determinism's two halves must each earn theirs too: the
// per-file half catches sites without a call chain, the reachable half
// sites outside the simulator packages.
func TestCatchMatrix(t *testing.T) {
	prog := loadFixture(t)
	pkgOf := map[string]string{} // filename -> import path
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			pkgOf[prog.Position(f.Pos()).Filename] = pkg.Path
		}
	}
	sites := map[string]map[string]bool{} // analyzer -> file:line set
	perFile, reachable := 0, 0
	for _, a := range Default() {
		sites[a.Name()] = map[string]bool{}
		for _, d := range Run(prog, []Analyzer{a}) {
			sites[a.Name()][filepath.Base(d.Pos.Filename)+":"+itoa(d.Pos.Line)] = true
			if a.Name() != "determinism" {
				continue
			}
			if !strings.Contains(d.Msg, "(reachable via ") {
				perFile++
			} else if !prog.simPackage(pkgOf[d.Pos.Filename]) {
				reachable++
			}
		}
	}
	var rows []string
	for _, a := range Default() {
		var unique []string
		for site := range sites[a.Name()] {
			shared := false
			for other, s := range sites {
				shared = shared || (other != a.Name() && s[site])
			}
			if !shared {
				unique = append(unique, site)
			}
		}
		sort.Strings(unique)
		rows = append(rows, sprintf("%-12s %2d unique of %2d: %s", a.Name(), len(unique), len(sites[a.Name()]), strings.Join(unique, " ")))
		if len(unique) == 0 {
			t.Errorf("%s flags no site another analyzer misses", a.Name())
		}
	}
	t.Logf("catch matrix (analyzer alone over the fixture):\n%s\ndeterminism: %d per-file-only sites, %d reachable-only sites",
		strings.Join(rows, "\n"), perFile, reachable)
	if perFile == 0 || reachable == 0 {
		t.Errorf("determinism half without a catch of its own: %d per-file-only, %d reachable-only", perFile, reachable)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
