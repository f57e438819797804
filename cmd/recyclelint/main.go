// Command recyclelint runs the simulator-specific static-analysis
// suite (internal/lint) over the module and exits non-zero on findings.
// It is part of the pre-PR gate (`make check`).
//
// Usage:
//
//	recyclelint [-rules determinism,deadstat,...] [-list] [-json] [dir]
//
// dir defaults to the current directory; the whole enclosing module is
// always loaded (the analyzers reason across packages).  Findings can
// be suppressed with `//simlint:ignore <rule> [<rule>...] [-- reason]`
// on or above the offending line.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"recyclesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recyclelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		// Listing needs only names and docs, not a loaded module.
		for _, a := range lint.Default() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		// Accept `./...`-style patterns for familiarity; the module is
		// always loaded whole.
		dir = strings.TrimSuffix(fs.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	default:
		fmt.Fprintln(stderr, "usage: recyclelint [-rules r1,r2] [-list] [-json] [dir]")
		return 2
	}

	// Reject an unknown rule before the module load, which type-checks
	// everything; like -list, the names need no loaded module.
	analyzers, err := selectRules(lint.Default(), *rules)
	if err != nil {
		fmt.Fprintf(stderr, "recyclelint: %v\n", err)
		return 2
	}

	prog, err := lint.Load(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	diags := lint.Run(prog, analyzers)
	if *jsonOut {
		if err := emitJSON(stdout, prog, diags); err != nil {
			fmt.Fprintln(stderr, "recyclelint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "recyclelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectRules returns the analyzers named by the comma-separated rules
// list, in list order, or all of them when the list is empty.
func selectRules(all []lint.Analyzer, rules string) ([]lint.Analyzer, error) {
	if rules == "" {
		return all, nil
	}
	byName := map[string]lint.Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	var sel []lint.Analyzer
	for _, r := range strings.Split(rules, ",") {
		a, ok := byName[strings.TrimSpace(r)]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", strings.TrimSpace(r))
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// jsonDiag is the machine-readable diagnostic shape.
type jsonDiag struct {
	File string `json:"file"` // module-root-relative path
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func emitJSON(w io.Writer, prog *lint.Program, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File: relPath(prog, d.Pos.Filename),
			Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Msg: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func relPath(prog *lint.Program, filename string) string {
	if prog.ModRoot != "" {
		if rel, err := filepath.Rel(prog.ModRoot, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
