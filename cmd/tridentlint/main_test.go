package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixture returns the path of a lint fixture module relative to this
// package's directory.
func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", name)
}

// TestRunExitCodes pins the CLI contract: 0 clean, 1 findings, 2 usage or
// load error.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean module", []string{fixture("good")}, 0},
		{"findings", []string{fixture("bad")}, 1},
		{"findings as json", []string{"-json", fixture("bad")}, 1},
		{"list", []string{"-list"}, 0},
		{"unknown check", []string{"-checks", "nosuchcheck", fixture("good")}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"checks subset clean", []string{"-checks", "layering", fixture("good")}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRunTextOutputSorted pins deterministic reporting: text lines come
// out sorted by file, line, column — and a repeated invocation is
// byte-identical.
func TestRunTextOutputSorted(t *testing.T) {
	var a, b, stderr bytes.Buffer
	if code := run([]string{fixture("bad")}, &a, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) < 20 {
		t.Fatalf("only %d findings on the bad fixture, expected the full seeded set", len(lines))
	}
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	// file:line: prefixes sort lexically except for multi-digit line
	// numbers; compare by parsed position instead.
	type pos struct {
		file string
		rest string
	}
	var prev pos
	for i, l := range lines {
		parts := strings.SplitN(l, ":", 3)
		if len(parts) != 3 {
			t.Fatalf("line %d not file:line:msg: %q", i, l)
		}
		cur := pos{parts[0], l}
		if i > 0 && cur.file < prev.file {
			t.Errorf("output not sorted by file: %q after %q", cur.file, prev.file)
		}
		prev = cur
	}

	if code := run([]string{fixture("bad")}, &b, &stderr); code != 1 {
		t.Fatalf("second run exit %d, want 1", code)
	}
	if a.String() != b.String() {
		t.Error("two identical invocations produced different output")
	}
}

// TestRunMergesModuleRoots pins multi-root behavior: patterns in either
// order yield the same merged, sorted output.
func TestRunMergesModuleRoots(t *testing.T) {
	var ab, ba, stderr bytes.Buffer
	if code := run([]string{"-json", fixture("bad"), fixture("good")}, &ab, &stderr); code != 1 {
		t.Fatalf("bad,good exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if code := run([]string{"-json", fixture("good"), fixture("bad")}, &ba, &stderr); code != 1 {
		t.Fatalf("good,bad exit %d, want 1", code)
	}
	if ab.String() != ba.String() {
		t.Error("pattern order changed the merged output; findings must be globally sorted")
	}
	var fs []lint.Finding
	if err := json.Unmarshal(ab.Bytes(), &fs); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	for _, f := range fs {
		if !strings.Contains(f.File, "bad") {
			t.Errorf("finding from outside the bad module: %+v", f)
		}
	}
}

// TestRunListNamesAllChecks keeps -list in lockstep with the registry.
func TestRunListNamesAllChecks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	for _, c := range lint.Checks() {
		if !strings.Contains(stdout.String(), c.Name) {
			t.Errorf("-list output missing check %s", c.Name)
		}
	}
}
