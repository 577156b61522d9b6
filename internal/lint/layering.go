package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// simulatedPackages are the module-relative directories that make up the
// simulated world: everything whose behavior must be a pure function of
// sim.Config. Reading the wall clock (or scheduling against it) inside any
// of them would leak host timing into results and break the bit-exact
// determinism contract (TestParallelDeterminism, TestStoreKillAndResume,
// TestObsPureObserver). Wall-clock usage belongs in runner/ and cmd/ only.
// A new machine package slots in by adding one line.
var simulatedPackages = []string{
	"internal/audit",
	"internal/buddy",
	"internal/chaos",
	"internal/compact",
	"internal/core",
	"internal/fault",
	"internal/fragment",
	"internal/hawkeye",
	"internal/kernel",
	"internal/mmu",
	"internal/obs",
	"internal/pagetable",
	"internal/perfmodel",
	"internal/phys",
	"internal/promote",
	"internal/sim",
	"internal/stream",
	"internal/tlb",
	"internal/virt",
	"internal/vmm",
	"internal/workload",
	"internal/zerofill",
}

// memoKeyRel and memoKeySurface name the runner's memo-key computation,
// declared once: the key pipeline (sim.Config → cacheKey → content
// address) and the key type, whose every user joins the surface so a new
// helper cannot dodge the rule by picking a fresh name. The layering table
// keeps the surface observation-free; detertaint treats its functions as
// a sink.
const memoKeyRel = "internal/runner"

var memoKeySurface = []string{"keyOf", "fingerprintKey", "Fingerprint", "cacheKey"}

// LayerRule declares one class of forbidden dependency. From and Except
// are module-relative directory patterns: a trailing "/..." matches the
// directory and everything beneath it, and the special pattern "..."
// matches every module-internal package. Deny lists module-internal
// packages in the same notation. DenyStd lists standard-library import
// paths ("math/rand") and package-level functions ("time.Now").
//
// Funcs narrows a row from packages to function bodies: the row then bans
// uses of its Deny and DenyStd packages and functions inside the named
// functions of the From packages, and inside any function whose
// declaration names a type Funcs lists. Imports stay legal.
type LayerRule struct {
	From    []string
	Except  []string
	Funcs   []string
	Deny    []string
	DenyStd []string
	Why     string
}

// layerRules is the dependency table (DESIGN.md §8). The architecture,
// bottom to top:
//
//	units, stats, xrand, stream              (leaves: no internal imports)
//	phys … tlb … kernel … sim                (the simulated machine)
//	obs                                      (passive observer: leaves only)
//	runner                                   (experiment engine)
//	experiments, repro (root), cmd/*         (drivers)
//
// Below the package DAG sit two standard-library fences: the simulated
// world never touches the host clock, and only xrand may import math/rand.
// A new package slots in by adding it to simulatedPackages or to a rule.
var layerRules = []LayerRule{
	{
		From: simulatedPackages,
		Deny: []string{"internal/runner", "internal/experiments", "cmd/..."},
		Why:  "the simulated world sits below the experiment engine; a Result must be a pure function of sim.Config",
	},
	{
		From: simulatedPackages,
		DenyStd: []string{"time.Now", "time.Since", "time.Until", "time.Sleep", "time.Tick",
			"time.After", "time.AfterFunc", "time.NewTicker", "time.NewTimer"},
		Why: "timestamps in the simulated world must be simulated event time (DESIGN.md §7); duration constants and arithmetic stay legal",
	},
	{
		From:    simulatedPackages,
		DenyStd: []string{"os.Getenv", "os.LookupEnv", "os.Environ"},
		Why:     "the simulated world's inputs are sim.Config alone: an environment read would change a Result without changing its memo key",
	},
	{
		From:    []string{"..."},
		Except:  []string{"internal/xrand"},
		DenyStd: []string{"math/rand", "math/rand/v2"},
		Why:     "all randomness must flow from seeded internal/xrand streams",
	},
	{
		From: []string{"internal/obs"},
		Deny: []string{"internal/sim", "internal/kernel", "internal/mmu", "internal/fault", "internal/workload"},
		Why:  "obs is a passive observer fed through hooks; reaching back into the machine would let tracing influence execution",
	},
	{
		From: []string{"internal/runner"},
		Deny: []string{"internal/experiments", "cmd/..."},
		Why:  "the runner executes jobs for the experiment drivers, never the reverse",
	},
	{
		From:  []string{memoKeyRel},
		Funcs: memoKeySurface,
		Deny:  []string{"internal/obs", "internal/service"},
		DenyStd: []string{"log", "log/slog",
			"fmt.Print", "fmt.Println", "fmt.Printf", "fmt.Fprint", "fmt.Fprintln", "fmt.Fprintf"},
		Why: "memo-key computation must be observation-free: the key decides which cached Result is served, so logs and events must not influence it; render with fmt.Sprintf",
	},
	{
		From: []string{"internal/units", "internal/stats", "internal/xrand", "internal/stream"},
		Deny: []string{"..."},
		Why:  "leaf package: must not import anything module-internal",
	},
	{
		From: []string{"internal/store"},
		Deny: simulatedPackages,
		Why:  "the result store is a dumb durability backend (drivers, not rewrites); reaching into the simulated machine would couple storage formats to machine internals — faults are injected through store.FaultInjector, implemented by shape elsewhere",
	},
	{
		From: []string{"internal/store"},
		Deny: []string{"internal/runner", "internal/service", "internal/experiments", "cmd/..."},
		Why:  "the store sits below the engine: the runner and service call into it, never the reverse",
	},
	{
		From: []string{"internal/service"},
		Deny: []string{"internal/experiments", "cmd/..."},
		Why:  "the sweep service drives the runner directly; the figure drivers and commands sit above it",
	},
}

// matchLayer reports whether rel matches a rule pattern.
func matchLayer(pattern, rel string) bool {
	if pattern == "..." {
		return true
	}
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return rel == base || strings.HasPrefix(rel, base+"/")
	}
	return rel == pattern
}

func matchAny(patterns []string, rel string) bool {
	return slices.ContainsFunc(patterns, func(p string) bool { return matchLayer(p, rel) })
}

// checkLayering enforces layerRules. Module-internal edges and banned
// functions are checked in non-test files only: integration tests
// legitimately reach across layers (sim's determinism tests drive the
// runner), and tests may time themselves. A banned standard-library
// package is banned in test files too — a stray rand.Shuffle in a test
// makes its failures unreproducible. Banned functions are resolved through
// go/types, so an aliased import (`import t "time"; t.Now()`), a dot
// import or a captured function value (`f := time.Now`) cannot slip past.
func checkLayering(m *Module) []Finding {
	var out []Finding
	for _, pkg := range m.Packages {
		for _, rule := range layerRules {
			if !matchAny(rule.From, pkg.Rel) || matchAny(rule.Except, pkg.Rel) {
				continue
			}
			if len(rule.Funcs) > 0 {
				if pkg.Info != nil {
					out = append(out, m.deniedInFuncs(pkg, rule)...)
				}
				continue
			}
			files := append(slices.Clip(pkg.Files), pkg.TestFiles...)
			for i, f := range files {
				test := i >= len(pkg.Files)
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					dep, internal := m.relOf(path)
					switch {
					case internal && !test && matchAny(rule.Deny, dep):
					case !internal && slices.Contains(rule.DenyStd, path):
						dep = path
					default:
						continue
					}
					out = append(out, m.finding(imp.Pos(), "layering",
						"%s must not import %s: %s", pkg.Rel, dep, rule.Why))
				}
			}
			if len(rule.DenyStd) > 0 && pkg.Info != nil {
				out = append(out, m.deniedFuncs(pkg, rule)...)
			}
		}
	}
	return out
}

// deniedFuncs reports every use in pkg's non-test files of a package-level
// function that rule.DenyStd names.
func (m *Module) deniedFuncs(pkg *Package, rule LayerRule) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if name := fn.Pkg().Path() + "." + fn.Name(); slices.Contains(rule.DenyStd, name) {
				out = append(out, m.finding(id.Pos(), "layering",
					"%s must not use %s: %s", pkg.Rel, name, rule.Why))
			}
			return true
		})
	}
	return out
}

// deniedInFuncs reports every use, inside the bodies of rule.Funcs in pkg's
// non-test files, of an object from a denied package or of a denied
// function.
func (m *Module) deniedInFuncs(pkg *Package, rule LayerRule) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !inFuncScope(pkg, fd, rule.Funcs) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg() == pkg.Types {
					return true
				}
				path := obj.Pkg().Path()
				name := path + "." + obj.Name()
				dep, internal := m.relOf(path)
				_, isFunc := obj.(*types.Func)
				switch {
				case internal && matchAny(rule.Deny, dep):
					name = dep + "." + obj.Name()
				case !internal && slices.Contains(rule.DenyStd, path):
				case isFunc && slices.Contains(rule.DenyStd, name):
				default:
					return true
				}
				out = append(out, m.finding(id.Pos(), "layering",
					"%s.%s must not use %s: %s", pkg.Rel, fd.Name.Name, name, rule.Why))
				return true
			})
		}
	}
	return out
}

// inFuncScope reports whether fd is named in funcs or its declaration,
// signature included, names a type of pkg that funcs lists.
func inFuncScope(pkg *Package, fd *ast.FuncDecl, funcs []string) bool {
	if slices.Contains(funcs, fd.Name.Name) {
		return true
	}
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if tn, ok := pkg.Info.Uses[id].(*types.TypeName); ok && tn.Pkg() == pkg.Types && slices.Contains(funcs, tn.Name()) {
				found = true
			}
		}
		return !found
	})
	return found
}
