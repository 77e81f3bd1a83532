package scenario

import (
	"reflect"
	"testing"
)

// TestConfigDigestStable pins the basic contract: equal configs digest
// equally (including across Clone, whose maps are fresh allocations),
// and the digest is a fixed-width hex string.
func TestConfigDigestStable(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if a.Digest() != b.Digest() {
		t.Fatalf("equal configs digest differently: %s vs %s", a.Digest(), b.Digest())
	}
	if got := a.Clone().Digest(); got != a.Digest() {
		t.Fatalf("Clone changed the digest: %s vs %s", got, a.Digest())
	}
	if len(a.Digest()) != 64 {
		t.Fatalf("digest %q is not sha256 hex", a.Digest())
	}
}

// TestConfigDigestPinned pins the digest bytes themselves. Every run
// key hashes a config digest, and run archives on disk are named by
// those keys, so a change to the encoding — a different float format, a
// reordered line, a lost quote — would orphan every archived run. It
// must fail here instead.
func TestConfigDigestPinned(t *testing.T) {
	scaled := DefaultConfig().Scaled(0.1)
	scaled.Seed = 3005
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "5222932b129ed26bb1b7d891afc87cba7e3dfba70a642583e0f7df940337757a"},
		{"scaled 0.1, seed 3005", scaled, "bf729b2e79da63c2e2dd092fe91f48f8b758727e8e158d280894b2d1fd7ed851"},
	}
	for _, tc := range cases {
		if got := tc.cfg.Digest(); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

var digestSink string

func BenchmarkConfigDigest(b *testing.B) {
	cfg := DefaultConfig().Scaled(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = cfg.Digest()
	}
}

// TestConfigDigestFieldSensitivity walks Config by reflection and
// mutates every field (recursively through nested structs, and one
// entry of every map), asserting each mutation lands in the digest. A
// field added to Config later is covered with no test change; a field
// kind the walk cannot mutate fails loudly so appendCanonical and this
// test grow together.
func TestConfigDigestFieldSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	base := cfg.Digest()

	check := func(path string) {
		t.Helper()
		if cfg.Digest() == base {
			t.Errorf("mutating %s did not change the digest", path)
		}
	}

	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			st := v.Type()
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+st.Field(i).Name)
			}
		case reflect.Map:
			keys := v.MapKeys()
			if len(keys) == 0 {
				t.Fatalf("map field %s is empty in DefaultConfig; cannot test sensitivity", path)
			}
			k := keys[0]
			old := v.MapIndex(k)
			v.SetMapIndex(k, reflect.ValueOf(old.Float()+1))
			check(path)
			v.SetMapIndex(k, old)
		case reflect.Bool:
			v.SetBool(!v.Bool())
			check(path)
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			check(path)
			v.SetInt(old)
		case reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.5)
			check(path)
			v.SetFloat(old)
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			check(path)
			v.SetString(old)
		default:
			t.Fatalf("unhandled Config field kind %s at %s; extend appendCanonical and this walk", v.Kind(), path)
		}
	}

	rv := reflect.ValueOf(&cfg).Elem()
	st := rv.Type()
	for i := 0; i < rv.NumField(); i++ {
		walk(rv.Field(i), st.Field(i).Name)
		if cfg.Digest() != base {
			t.Fatalf("field %s was not restored after mutation", st.Field(i).Name)
		}
	}
}
