// Command tridentlint runs the repo's determinism & layering static
// analysis suite (internal/lint, DESIGN.md §8) over one or more modules.
//
// Usage:
//
//	tridentlint [-json] [-checks layering,detertaint,...] [-list] [pattern ...]
//
// Each pattern names a directory (a trailing "/..." is accepted and
// ignored — the whole enclosing module is always analyzed, found by
// walking up to the nearest go.mod). With no patterns, the module
// containing the current directory is analyzed. `tridentlint ./...` is the
// CI self-clean gate; `tridentlint internal/lint/testdata/bad` is the CI
// negative gate — that directory carries its own go.mod, so the seeded
// violations load as an independent module.
//
// Exit status (pinned by TestRunExitCodes): 0 clean, 1 findings reported,
// 2 usage or load/type-check failure. Findings from every module root are
// merged and sorted by position before printing, so the output is
// byte-identical regardless of pattern order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, factored for testing: parse flags, resolve module
// roots, lint each, merge + sort, print. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tridentlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	checks := lint.Checks()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	if *checksFlag != "" {
		var err error
		if checks, err = selectChecks(checks, *checksFlag); err != nil {
			fmt.Fprintln(stderr, "tridentlint:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	roots, err := moduleRoots(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "tridentlint:", err)
		return 2
	}

	var findings []lint.Finding
	for _, root := range roots {
		m, err := lint.Load(root)
		if err != nil {
			fmt.Fprintln(stderr, "tridentlint:", err)
			return 2
		}
		findings = append(findings, lint.Run(m, checks)...)
	}
	lint.SortFindings(findings)

	if *jsonOut {
		if err := lint.FindingsJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "tridentlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func selectChecks(all []lint.Check, names string) ([]lint.Check, error) {
	byName := map[string]lint.Check{}
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []lint.Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (see -list)", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// moduleRoots resolves patterns to their deduplicated enclosing module
// roots, preserving first-appearance order.
func moduleRoots(patterns []string) ([]string, error) {
	var roots []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		dir := strings.TrimSuffix(pat, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
		root, err := findModuleRoot(dir)
		if err != nil {
			return nil, err
		}
		if !seen[root] {
			seen[root] = true
			roots = append(roots, root)
		}
	}
	return roots, nil
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found for %s", dir)
		}
		d = parent
	}
}
