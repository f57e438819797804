package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses and type-checks every package of the module containing
// dir (non-test files only) using nothing but the standard library:
// module-internal imports are resolved from source by walking the
// module tree, and standard-library imports go through the go/importer
// "source" importer, so no compiled export data is required.
func Load(dir string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		std:     importer.ForCompiler(fset, "source", nil),
		cache:   map[string]*types.Package{},
		pkgs:    map[string]*Package{},
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: fset, ModPath: modPath, ModRoot: root}
	for _, d := range dirs {
		path := modPath
		if rel, _ := filepath.Rel(root, d); rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := ld.load(path); err != nil {
			return nil, fmt.Errorf("lint: loading %s: %w", path, err)
		}
		prog.Pkgs = append(prog.Pkgs, ld.pkgs[path])
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// packageDirs returns every directory under root holding at least one
// non-test .go file, skipping testdata, hidden directories, and .git.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// loader type-checks packages on demand, resolving module-internal
// imports recursively and delegating the rest to the source importer.
type loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	std     types.Importer
	cache   map[string]*types.Package
	pkgs    map[string]*Package
	loading []string // import stack for cycle reporting
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.load(path)
}

func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle: %s", strings.Join(append(l.loading, path), " -> "))
		}
		return p, nil
	}
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.std.Import(path)
		if err == nil {
			l.cache[path] = p
		}
		return p, err
	}

	dir := l.modRoot
	if path != l.modPath {
		dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
	}
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	l.cache[path] = nil // cycle marker
	l.loading = append(l.loading, path)
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	l.loading = l.loading[:len(l.loading)-1]
	if err != nil {
		delete(l.cache, path)
		return nil, err
	}
	l.cache[path] = pkg
	l.pkgs[path] = &Package{Path: path, Types: pkg, Info: info, Files: files}
	return pkg, nil
}

// parseDir parses the non-test .go files of one directory in sorted
// filename order (ParseDir returns a map, which would make positions
// and diagnostics order-unstable).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}
