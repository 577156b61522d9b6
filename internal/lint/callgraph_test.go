package lint

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadGraph loads the callgraph fixture module and builds its graph.
func loadGraph(t *testing.T) (*Module, *callGraph) {
	t.Helper()
	m := load(t, filepath.Join("testdata", "callgraph"))
	return m, m.graph()
}

// nodeByLabel finds a graph node by its diagnostic label.
func nodeByLabel(t *testing.T, g *callGraph, label string) *callNode {
	t.Helper()
	for _, n := range g.funcs {
		if n.label() == label {
			return n
		}
	}
	var all []string
	for _, n := range g.funcs {
		all = append(all, n.label())
	}
	t.Fatalf("no node labeled %q; have: %s", label, strings.Join(all, ", "))
	return nil
}

// edgeLabels lists a node's callee labels in source-encounter order,
// deduplicated.
func edgeLabels(n *callNode) []string {
	seen := map[string]bool{}
	var out []string
	for _, callee := range n.edges {
		if l := callee.label(); !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func TestCallGraphStaticAndInterfaceDispatch(t *testing.T) {
	_, g := loadGraph(t)
	run := nodeByLabel(t, g, "internal/graph.Run")
	// step is the static call; d.Put over-approximates to every module
	// implementor of Driver, sorted by label (Disk before Mem).
	want := []string{"internal/graph.step", "(*internal/graph.Disk).Put", "(*internal/graph.Mem).Put"}
	if got := edgeLabels(run); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("Run edges = %v, want %v", got, want)
	}
}

func TestCallGraphMethodValueReference(t *testing.T) {
	_, g := loadGraph(t)
	handle := nodeByLabel(t, g, "(*internal/graph.Watcher).Handle")
	edges := edgeLabels(handle)
	if !slices.Contains(edges, "(*internal/graph.Watcher).observe") {
		t.Errorf("Handle edges = %v, want a may-run edge to observe (method value in Hooks literal)", edges)
	}
}

func TestCallGraphUnresolvableCalls(t *testing.T) {
	_, g := loadGraph(t)
	apply := nodeByLabel(t, g, "internal/graph.Apply")
	if edges := edgeLabels(apply); len(edges) != 0 {
		t.Errorf("Apply calls only through a function-typed parameter, yet has edges %v", edges)
	}
}

func TestCallGraphRecursionAndClosure(t *testing.T) {
	_, g := loadGraph(t)
	fib := nodeByLabel(t, g, "internal/graph.Fib")
	if edges := edgeLabels(fib); len(edges) != 1 || edges[0] != "internal/graph.Fib" {
		t.Errorf("Fib edges = %v, want a self-edge only", edges)
	}

	// closure terminates on cycles: seed the mutually-recursive pair.
	odd := nodeByLabel(t, g, "internal/graph.Odd")
	even := nodeByLabel(t, g, "internal/graph.Even")
	member, why := g.closure(map[*callNode]string{odd: "is the base"})
	if !member[even] {
		t.Error("Even calls Odd; closure must include it")
	}
	if want := "calls internal/graph.Odd, which is the base"; why[even] != want {
		t.Errorf("why[Even] = %q, want %q", why[even], want)
	}
	if !member[odd] || why[odd] != "is the base" {
		t.Errorf("base node lost: member=%v why=%q", member[odd], why[odd])
	}

	// A call made inside a function literal belongs to the enclosing
	// declaration: seeding step must pull in Spawn (and Run).
	step := nodeByLabel(t, g, "internal/graph.step")
	member, _ = g.closure(map[*callNode]string{step: "hits the disk"})
	if spawn := nodeByLabel(t, g, "internal/graph.Spawn"); !member[spawn] {
		t.Error("Spawn's closure calls step; the edge must be attributed to Spawn")
	}
	if run := nodeByLabel(t, g, "internal/graph.Run"); !member[run] {
		t.Error("Run calls step directly; closure must include it")
	}
}

// TestCallGraphLoaderSkips pins the loader contract the graph builds on:
// nested modules and testdata trees are invisible, and the graph is built
// once and cached per Module.
func TestCallGraphLoaderSkips(t *testing.T) {
	m, g := loadGraph(t)
	if pkg := m.ByRel("internal/nested"); pkg != nil {
		t.Error("nested module (own go.mod) was loaded; the loader must skip it")
	}
	for _, pkg := range m.Packages {
		if strings.Contains(pkg.Rel, "nested") || strings.Contains(pkg.Rel, "testdata") {
			t.Errorf("loader picked up %s; nested modules and testdata dirs must be skipped", pkg.Rel)
		}
	}
	for _, n := range g.funcs {
		if n.fn.Name() == "NestedMarker" || n.fn.Name() == "Skipped" {
			t.Errorf("graph contains %s from a skipped tree", n.label())
		}
	}
	if m.graph() != g {
		t.Error("graph() must cache: two calls returned distinct instances")
	}
}
