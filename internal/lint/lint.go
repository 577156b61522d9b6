package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Finding is one diagnostic. The JSON field names are the -json output
// schema.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// Check is one analysis in the registry.
type Check struct {
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	Run func(m *Module) []Finding
}

// Checks returns the full registry with the repo's default tables
// (DESIGN.md §8). Order is the reporting order for equal positions.
func Checks() []Check {
	return []Check{
		{Name: "layering", Doc: "declared dependency table: import DAG between layers, host clock out of the simulated world, math/rand only in internal/xrand, memo-key computation free of logging and observability calls", Run: checkLayering},
		{Name: "detertaint", Doc: "no ambient-source or map-order value flow (any call depth) into results, reports, journals or memo keys; no map-order output", Run: checkDeterTaint},
		{Name: "errdrop", Doc: "no discarded Write/Sync/Rename/Close errors on durability paths", Run: checkErrDrop},
		{Name: "lockflow", Doc: "no blocking ops under held mutexes, no double-locks", Run: checkLockFlow},
	}
}

// ignoreCheck is the pseudo-check name under which malformed suppression
// directives are reported. It cannot itself be suppressed.
const ignoreCheck = "ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	file  string
	line  int
	check string
}

// Run executes checks against m, applies //lint:ignore suppressions, and
// returns the surviving findings sorted by position. A directive only
// suppresses when it names the finding's check and carries a non-empty
// reason; a malformed directive is itself reported under the "ignore"
// pseudo-check.
func Run(m *Module, checks []Check) []Finding {
	var all []Finding
	for _, c := range checks {
		all = append(all, c.Run(m)...)
	}
	dirs, bad := m.directives()
	all = append(all, bad...)

	// A finding is suppressed by a well-formed directive for its check on
	// the same line (trailing comment) or the line directly above.
	suppressed := func(f Finding) bool {
		for _, d := range dirs {
			if d.file == f.File && d.check == f.Check && (d.line == f.Line || d.line == f.Line-1) {
				return true
			}
		}
		return false
	}
	var out []Finding
	for _, f := range all {
		if f.Check != ignoreCheck && suppressed(f) {
			continue
		}
		out = append(out, f)
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by position (file, line, col), then check,
// then message — the canonical reporting order. The CLI re-sorts after
// merging multiple module roots so its output is deterministic regardless
// of how the roots were listed.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// directives scans every comment (test files included) for //lint:ignore.
// Malformed directives — no check name, or no reason — come back as
// findings so the suppression mechanism cannot be used to hide a violation
// without an argument on record.
func (m *Module) directives() ([]directive, []Finding) {
	var dirs []directive
	var bad []Finding
	scan := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := m.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check:   ignoreCheck,
						Message: "malformed //lint:ignore: want '//lint:ignore <check> <reason>' with a non-empty reason",
					})
					continue
				}
				dirs = append(dirs, directive{
					file:  pos.Filename,
					line:  pos.Line,
					check: fields[0],
				})
			}
		}
	}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			scan(f)
		}
		for _, f := range p.TestFiles {
			scan(f)
		}
	}
	return dirs, bad
}

// finding builds a Finding at a token position.
func (m *Module) finding(pos token.Pos, check, format string, args ...any) Finding {
	p := m.Fset.Position(pos)
	return Finding{
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// FindingsJSON encodes findings as the -json output: a JSON array, one
// object per finding, empty array (not null) when clean.
func FindingsJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}
