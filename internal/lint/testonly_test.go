package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow lists the declarations TestNoTestOnlyCode accepts although
// no non-test code of the module reads them, one reason each. An entry
// whose declaration gains a reader or goes away fails the test too, so the
// list cannot go stale.
var testOnlyAllow = map[string]string{
	"internal/runner.ResetCache":              "called by the bench module, which Load skips as a nested module",
	"internal/chaos.NewIO":                    "fault injector for store IO; the store and runner tests inject through it",
	"(*internal/chaos.IOStats).Total":         "chaos IO injector statistics, read by the tests that inject",
	"(internal/chaos.IOConfig).Enabled":       "chaos IO injector configuration, read by the tests that inject",
	"internal/pagetable.NestedWalkAccesses":   "the nested walk-cost law the virtualized walk model is to be checked against (ROADMAP item 9)",
	"(*internal/pagetable.Table).MappedPages": "test accessor for tests in other packages; derived from MappedBytes, which production keeps",
	"(*internal/phys.Memory).UnmovableFrames": "test accessor for fragment, buddy and phys tests; summed from the region counters production keeps",
	"(*internal/service.statusWriter).Unwrap": "http.ResponseController finds the wrapped ResponseWriter through it, by an interface no module code names",
}

// TestNoTestOnlyCode keeps production code that only tests reach from
// growing back. Every package-level function and method and every
// unexported struct field declared in non-test Go must have a reader in
// non-test Go, judged by the type checker on the module TestSelfClean
// loads. Exempt without listing: the root package (the public API),
// main and init, embedded fields, the fields of a struct used as a map key
// (every lookup compares them), and methods that satisfy an interface
// type the module's code names (they are called through it).
func TestNoTestOnlyCode(t *testing.T) {
	got := unreadDecls(selfModule(t))
	seen := map[string]bool{}
	for _, d := range got {
		seen[d] = true
		if testOnlyAllow[d] == "" {
			t.Errorf("%s has no reader outside tests: delete it, move it into its package's export_test.go, or allowlist it with a reason", d)
		}
	}
	for d := range testOnlyAllow {
		if !seen[d] {
			t.Errorf("allowlist entry %s is stale: it has a reader outside tests or is gone", d)
		}
	}
}

// unreadDecls returns, sorted, the module's non-root declarations that no
// non-test code reads: functions and methods as types.Func full names,
// unexported struct fields as "field <package>.<struct>.<name>", with the
// module path trimmed from package paths.
func unreadDecls(m *Module) []string {
	read := map[types.Object]bool{}
	ifaces := namedInterfaces(m)
	for _, pkg := range m.Packages {
		writes := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			fieldWrites(f, writes)
		}
		for id, obj := range pkg.Info.Uses {
			if !writes[id] {
				read[origin(obj)] = true
			}
		}
		// A map key's fields are read by every lookup.
		for _, tv := range pkg.Info.Types {
			mt, ok := tv.Type.(*types.Map)
			if !ok {
				continue
			}
			if st, ok := mt.Key().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					read[st.Field(i)] = true
				}
			}
		}
	}
	var out []string
	for _, pkg := range m.Packages {
		if pkg.Rel == "" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[n.Name].(*types.Func)
					if fn == nil || read[fn] || satisfiesNamed(fn, ifaces) {
						return false
					}
					if n.Recv == nil && (n.Name.Name == "main" || n.Name.Name == "init") {
						return false
					}
					out = append(out, fn.FullName())
					return false
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							v, _ := pkg.Info.Defs[name].(*types.Var)
							if v == nil || v.Exported() || v.Embedded() || read[v] {
								continue
							}
							out = append(out, "field "+pkg.ImportPath+"."+n.Name.Name+"."+v.Name())
						}
					}
				}
				return true
			})
		}
	}
	for i, d := range out {
		out[i] = strings.ReplaceAll(d, m.Path+"/", "")
	}
	sort.Strings(out)
	return out
}

// origin maps an instantiated generic function or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// fieldWrites adds to w the identifiers of f that only store: the target
// of an assignment (through any index), an increment or decrement, and a
// composite-literal key. A field read nowhere else is write-only.
func fieldWrites(f *ast.File, w map[*ast.Ident]bool) {
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				w[x.Sel] = true
			case *ast.Ident:
				w[x] = true
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					mark(l)
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		}
		return true
	})
}

// namedInterfaces collects the non-empty interface types the module's
// non-test code names: declared, or the type of any expression, parameter
// or result it type-checks. fmt.Stringer counts wherever fmt is imported,
// since fmt's verbs call String through it.
func namedInterfaces(m *Module) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, pkg := range m.Packages {
		for _, tv := range pkg.Info.Types {
			if tv.Type == nil {
				continue
			}
			add(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						add(tup.At(i).Type())
					}
				}
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == "fmt" {
				add(imp.Scope().Lookup("Stringer").Type())
			}
		}
	}
	return out
}

// satisfiesNamed reports whether method fn belongs to a type that
// implements an interface in ifaces carrying a method of fn's name.
func satisfiesNamed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
