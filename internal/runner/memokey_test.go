package runner

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestFingerprintKeysEveryField checks the memo key by behaviour: every
// sim.Config field, found by reflection, must change the fingerprint when
// perturbed on a normalized base — except the fields keyOf deliberately
// clears, which must leave it unchanged. The base is normalized because a
// zero field can alias its default (Seed 0 runs as Seed 1). Each field is
// perturbed twice into separately allocated equal values, and the two
// fingerprints must agree: a pointer address leaking into the key's %#v
// rendering would split them.
func TestFingerprintKeysEveryField(t *testing.T) {
	base := tinyConfig(t).Normalized()
	fp := Fingerprint(base)
	cleared := map[string]bool{"Obs": true}

	cfgT := reflect.TypeOf(base)
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		var fps [2]string
		for k := range fps {
			cfg := base
			perturb(t, name, settable(reflect.ValueOf(&cfg).Elem().Field(i)))
			fps[k] = Fingerprint(cfg)
		}
		switch {
		case cleared[name] && (fps[0] != fp || fps[1] != fp):
			t.Errorf("sim.Config.%s changes the fingerprint, but cannot affect a Result and must share a cache slot", name)
		case fps[0] != fps[1]:
			t.Errorf("sim.Config.%s: equal perturbations give different fingerprints: an address leaks into the key", name)
		case !cleared[name] && fps[0] == fp:
			t.Errorf("sim.Config.%s does not change the fingerprint: runs differing only in it would alias in the memo cache", name)
		}
	}
}

// settable returns a settable view of the addressable value v, so that
// unexported fields can be perturbed too.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// perturb sets v to a different value, deterministically: two calls on
// equal inputs produce equal results, with pointers freshly allocated. A
// struct or array is perturbed through its first perturbable element.
func perturb(t *testing.T, field string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if !v.IsNil() {
			p.Elem().Set(v.Elem())
			perturb(t, field, settable(p.Elem()))
		}
		v.Set(p)
	case reflect.Struct:
		if v.NumField() == 0 {
			t.Fatalf("sim.Config.%s: cannot perturb empty struct %s", field, v.Type())
		}
		perturb(t, field, settable(v.Field(0)))
	case reflect.Array:
		if v.Len() == 0 {
			t.Fatalf("sim.Config.%s: cannot perturb empty array %s", field, v.Type())
		}
		perturb(t, field, v.Index(0))
	default:
		t.Fatalf("sim.Config.%s: no perturbation for kind %s; extend perturb", field, v.Kind())
	}
}
