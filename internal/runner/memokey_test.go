package runner

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMemoKeyCoversConfig is the reflection-based runtime twin of
// tridentlint's memokey static check: every exported sim.Config field must
// have a case-folded twin in cacheKey or a reasoned entry in
// MemoKeyExclusions — never both, never neither. A new Config field fails
// here (and at lint time) until its cache semantics are declared, which is
// what stops it from silently aliasing distinct configs in the memo cache
// the way an unkeyed Obs field almost did. sim.Config must have no
// unexported fields: keyOf cannot read them from outside package sim, so
// such a field could never be fingerprinted.
func TestMemoKeyCoversConfig(t *testing.T) {
	cfgT := reflect.TypeOf(sim.Config{})
	keyT := reflect.TypeOf(cacheKey{})

	keyed := map[string]bool{}
	for i := 0; i < keyT.NumField(); i++ {
		keyed[strings.ToLower(keyT.Field(i).Name)] = true
	}

	for i := 0; i < cfgT.NumField(); i++ {
		f := cfgT.Field(i)
		if !f.IsExported() {
			t.Errorf("sim.Config.%s is unexported: cacheKey cannot fingerprint it from package runner, so it would silently alias distinct configs; export it and key it, or keep the state out of Config", f.Name)
			continue
		}
		_, excluded := MemoKeyExclusions[f.Name]
		inKey := keyed[strings.ToLower(f.Name)]
		switch {
		case inKey && excluded:
			t.Errorf("sim.Config.%s is both fingerprinted by cacheKey and listed in MemoKeyExclusions: drop one", f.Name)
		case !inKey && !excluded:
			t.Errorf("sim.Config.%s is neither in cacheKey nor in MemoKeyExclusions: extend keyOf (and cacheKey) or document the exclusion", f.Name)
		}
	}

	// Reverse direction: no stale key fields or exclusion entries, and
	// every exclusion must argue its case.
	cfgHas := func(name string) bool {
		for i := 0; i < cfgT.NumField(); i++ {
			if f := cfgT.Field(i); f.IsExported() && strings.EqualFold(f.Name, name) {
				return true
			}
		}
		return false
	}
	for i := 0; i < keyT.NumField(); i++ {
		if name := keyT.Field(i).Name; !cfgHas(name) {
			t.Errorf("cacheKey.%s matches no exported sim.Config field: stale key field", name)
		}
	}
	for name, reason := range MemoKeyExclusions {
		if _, ok := cfgT.FieldByName(name); !ok {
			t.Errorf("MemoKeyExclusions[%q] matches no sim.Config field: stale exclusion", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("MemoKeyExclusions[%q] has an empty reason: every exclusion must say why the field cannot affect a Result", name)
		}
	}
}
