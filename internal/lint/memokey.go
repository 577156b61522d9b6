package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// memoKeySpec names the two ends of the memo-key contract. The runner's
// cache must fingerprint every result-affecting field of sim.Config; a
// field that is neither in the key struct nor on the documented exclusion
// list can silently alias distinct configs in the cache — the bug
// Config.Obs nearly introduced before its exclusion was made deliberate.
// keyFuncs are the runner's key pipeline (sim.Config → cacheKey → content
// address), the memo-key surface obspure keeps observation-free and
// detertaint treats as a sink.
var memoKeySpec = struct {
	simRel, configType string
	runnerRel, keyType string
	exclusionsVar      string
	keyFuncs           map[string]bool
}{
	simRel: "internal/sim", configType: "Config",
	runnerRel: "internal/runner", keyType: "cacheKey",
	exclusionsVar: "MemoKeyExclusions",
	keyFuncs:      map[string]bool{"keyOf": true, "fingerprintKey": true, "Fingerprint": true},
}

// checkMemoKey statically proves sim.Config ⊆ runner.cacheKey ∪
// runner.MemoKeyExclusions. Field matching is case-folded (Config.MemGB ↔
// cacheKey.memGB, Config.TLB ↔ cacheKey.tlb). It also flags the reverse
// rot: cacheKey fields and exclusion entries that no longer correspond to
// any Config field, and fields that are both keyed and excluded.
// TestMemoKeyCoversConfig in internal/runner is the reflection-based
// runtime twin of this check.
//
// Modules without both internal/sim and internal/runner (fixtures for
// other checks) are skipped.
func checkMemoKey(m *Module) []Finding {
	simPkg, runnerPkg := m.ByRel(memoKeySpec.simRel), m.ByRel(memoKeySpec.runnerRel)
	if simPkg == nil || runnerPkg == nil || simPkg.Types == nil || runnerPkg.Types == nil {
		return nil
	}
	var out []Finding

	cfg := lookupStruct(simPkg.Types, memoKeySpec.configType)
	if cfg == nil {
		return []Finding{m.pkgFinding(simPkg, "memokey",
			"%s declares no struct type %s; update memoKeySpec if it moved", simPkg.Rel, memoKeySpec.configType)}
	}
	key := lookupStruct(runnerPkg.Types, memoKeySpec.keyType)
	if key == nil {
		out = append(out, m.pkgFinding(runnerPkg, "memokey",
			"%s declares no struct type %s: the memo cache key is gone or renamed", runnerPkg.Rel, memoKeySpec.keyType))
	}
	exclusions, exclFound := exclusionEntries(m, runnerPkg)
	if !exclFound {
		out = append(out, m.pkgFinding(runnerPkg, "memokey",
			"%s declares no map-literal var %s: the memo-key exclusion list must stay introspectable", runnerPkg.Rel, memoKeySpec.exclusionsVar))
	}
	if key == nil || !exclFound {
		return out
	}

	keyed := func(name string) bool {
		for i := 0; i < key.NumFields(); i++ {
			if strings.EqualFold(key.Field(i).Name(), name) {
				return true
			}
		}
		return false
	}
	for i := 0; i < cfg.NumFields(); i++ {
		f := cfg.Field(i)
		if !f.Exported() {
			continue
		}
		excl, isExcluded := exclusions[f.Name()]
		switch {
		case keyed(f.Name()) && isExcluded:
			out = append(out, m.finding(excl.pos, "memokey",
				"sim.%s.%s is fingerprinted by %s AND listed in %s: drop one",
				memoKeySpec.configType, f.Name(), memoKeySpec.keyType, memoKeySpec.exclusionsVar))
		case !keyed(f.Name()) && !isExcluded:
			out = append(out, m.finding(f.Pos(), "memokey",
				"sim.%s.%s is neither fingerprinted by runner.%s nor listed in runner.%s: a run differing only in this field would be served a stale cached Result",
				memoKeySpec.configType, f.Name(), memoKeySpec.keyType, memoKeySpec.exclusionsVar))
		}
	}
	// Reverse direction: stale key fields and exclusion entries.
	cfgHas := func(name string) bool {
		for i := 0; i < cfg.NumFields(); i++ {
			if cfg.Field(i).Exported() && strings.EqualFold(cfg.Field(i).Name(), name) {
				return true
			}
		}
		return false
	}
	for i := 0; i < key.NumFields(); i++ {
		if kf := key.Field(i); !cfgHas(kf.Name()) {
			out = append(out, m.finding(kf.Pos(), "memokey",
				"%s.%s matches no exported sim.%s field: stale key field",
				memoKeySpec.keyType, kf.Name(), memoKeySpec.configType))
		}
	}
	names := make([]string, 0, len(exclusions))
	for name := range exclusions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := exclusions[name]
		if !cfgHas(name) {
			out = append(out, m.finding(e.pos, "memokey",
				"%s entry %q matches no exported sim.%s field: stale exclusion",
				memoKeySpec.exclusionsVar, name, memoKeySpec.configType))
		}
		if strings.TrimSpace(e.reason) == "" {
			out = append(out, m.finding(e.pos, "memokey",
				"%s entry %q has an empty reason: every exclusion must say why the field cannot affect a Result",
				memoKeySpec.exclusionsVar, name))
		}
	}
	return out
}

func lookupStruct(pkg *types.Package, name string) *types.Struct {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	s, _ := obj.Type().Underlying().(*types.Struct)
	return s
}

type exclusionEntry struct {
	reason string
	pos    token.Pos
}

// exclusionEntries extracts the string keys (and reason values) of the
// runner's exclusion-list map literal from the AST, so the check sees the
// declared table rather than a runtime value.
func exclusionEntries(m *Module, pkg *Package) (map[string]exclusionEntry, bool) {
	entries := map[string]exclusionEntry{}
	found := false
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if name.Name != memoKeySpec.exclusionsVar || i >= len(spec.Values) {
					continue
				}
				lit, ok := spec.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				found = true
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					k, ok := stringLit(kv.Key)
					if !ok {
						continue
					}
					v, _ := stringLit(kv.Value)
					entries[k] = exclusionEntry{reason: v, pos: kv.Pos()}
				}
			}
			return true
		})
	}
	return entries, found
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// pkgFinding anchors a package-level diagnostic to the package's first
// source file.
func (m *Module) pkgFinding(pkg *Package, check, format string, args ...any) Finding {
	pos := token.NoPos
	if len(pkg.Files) > 0 {
		pos = pkg.Files[0].Pos()
	}
	return m.finding(pos, check, format, args...)
}
