package lint

import (
	"go/ast"
	"go/types"
)

// fmtStreamFuncs are the fmt functions that write to a stream. They are
// observable side effects; the pure renderers (Sprintf, Sprint, Errorf, the
// Append family) stay legal — fingerprintKey's %#v rendering depends on
// fmt.Sprintf.
var fmtStreamFuncs = map[string]bool{
	"Print":    true,
	"Println":  true,
	"Printf":   true,
	"Fprint":   true,
	"Fprintln": true,
	"Fprintf":  true,
}

// checkObsPure proves memo-key computation is observation-free: no function
// on the key surface (keyOf / fingerprintKey / Fingerprint, or anything
// touching the cacheKey type) may call into log, log/slog, fmt's stream
// printers, internal/obs or internal/service. The memo key decides whether
// a cached Result is reused; if emitting a log line or service event could
// perturb that computation, enabling observability would change which
// results are served — breaking the contract that reports are byte-identical
// with and without it (TestObsPureObserver is the runtime twin).
//
// The key surface is memoKeySpec.keyFuncs plus any function that mentions
// the cacheKey type at all, so a new helper cannot dodge the check by
// picking a fresh name. Modules without internal/runner (fixtures for other
// checks) are skipped.
func checkObsPure(m *Module) []Finding {
	pkg := m.ByRel(memoKeySpec.runnerRel)
	if pkg == nil || pkg.Types == nil || pkg.Info == nil {
		return nil
	}
	bannedRepoPkgs := map[string]string{
		m.Path + "/internal/obs":     "internal/obs",
		m.Path + "/internal/service": "internal/service",
	}
	// usesKeyType reports whether the declaration (signature included)
	// mentions the cacheKey type by name.
	usesKeyType := func(fd *ast.FuncDecl) bool {
		found := false
		ast.Inspect(fd, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || found {
				return !found
			}
			if tn, ok := pkg.Info.Uses[id].(*types.TypeName); ok &&
				tn.Name() == memoKeySpec.keyType && tn.Pkg() == pkg.Types {
				found = true
			}
			return !found
		})
		return found
	}

	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !memoKeySpec.keyFuncs[fd.Name.Name] && !usesKeyType(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch path := obj.Pkg().Path(); {
				case path == "log" || path == "log/slog":
					out = append(out, m.finding(sel.Pos(), "obspure",
						"%s.%s inside memo-key function %s: nothing observable may enter memo-key computation (logs and events are excluded from the key, so they must not influence it)",
						path, obj.Name(), fd.Name.Name))
				case path == "fmt" && fmtStreamFuncs[obj.Name()]:
					out = append(out, m.finding(sel.Pos(), "obspure",
						"fmt.%s inside memo-key function %s: stream printing is an observable side effect; render with fmt.Sprintf instead",
						obj.Name(), fd.Name.Name))
				case bannedRepoPkgs[path] != "":
					out = append(out, m.finding(sel.Pos(), "obspure",
						"%s.%s inside memo-key function %s: %s is observability/service machinery and must stay out of memo-key computation",
						bannedRepoPkgs[path], obj.Name(), fd.Name.Name, bannedRepoPkgs[path]))
				}
				return true
			})
		}
	}
	return out
}
