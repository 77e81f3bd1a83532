package scenario

// The canonical config digest: a content hash over every Config field,
// walked by reflection in declaration order so a field added to Config
// (or AttackConfig) can never silently fall out of the hash. It is the
// config half of the content-addressed run-cache key — the engine's
// determinism guarantee means two runs with equal config digests, seeds
// and specs produce byte-identical output, so a digest collision-free
// key makes cache hits *exact*, not approximate.
//
// The hashed bytes are a "path=value\n" line stream (Config.Seed=1,
// Config.ProviderWeights[choopa]=0.36, Config.NetProfile="", ...). Run
// archives are named by keys over this digest, so the stream must never
// change: TestConfigDigestPinned holds it to fixed values.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strconv"
)

// digestField is one leaf of Config: a scalar or a weight map, possibly
// inside a nested struct such as Attack.
type digestField struct {
	path  string // line prefix, e.g. "Config.Attack.Band"
	index []int  // reflect.Value.FieldByIndex path to the field
}

// configFields lists Config's leaves in declaration order. Config's shape
// is fixed at compile time, so its fields are walked once, when the
// package loads; Digest then only reads values.
var configFields = leafFields(reflect.TypeOf(Config{}), "Config", nil)

func leafFields(t reflect.Type, path string, index []int) []digestField {
	var out []digestField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		p := path + "." + f.Name
		idx := append(index[:len(index):len(index)], i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, p, idx)...)
		} else {
			out = append(out, digestField{path: p, index: idx})
		}
	}
	return out
}

// Digest returns the canonical content hash of the config as a hex
// string. Equal configs always digest equally; any field change —
// including inside the weight maps and the nested AttackConfig —
// produces a new digest (pinned by TestConfigDigestFieldSensitivity,
// which walks the struct by reflection so new fields are covered
// automatically).
func (c Config) Digest() string {
	v := reflect.ValueOf(&c).Elem()
	buf := make([]byte, 0, 4096)
	for _, f := range configFields {
		buf = appendCanonical(buf, f.path, v.FieldByIndex(f.index))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the "path=value" lines of one field. Map keys
// are sorted; floats render with strconv's shortest exact form, so the
// encoding is injective on the field kinds Config uses. An unsupported
// kind panics: the walk runs over our own struct, never over external
// input, so a miss is a programming error to fix here.
func appendCanonical(buf []byte, path string, v reflect.Value) []byte {
	if v.Kind() == reflect.Map {
		m, ok := v.Interface().(map[string]float64)
		if !ok {
			panic(fmt.Sprintf("scenario: config digest over unsupported map type %s at %s", v.Type(), path))
		}
		var stack [32]string
		keys := stack[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			buf = append(buf, path...)
			buf = append(buf, '[')
			buf = append(buf, k...)
			buf = append(buf, "]="...)
			buf = strconv.AppendFloat(buf, m[k], 'g', -1, 64)
			buf = append(buf, '\n')
		}
		return buf
	}
	buf = append(buf, path...)
	buf = append(buf, '=')
	switch v.Kind() {
	case reflect.Bool:
		buf = strconv.AppendBool(buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = strconv.AppendInt(buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf = strconv.AppendUint(buf, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		buf = strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	case reflect.String:
		buf = strconv.AppendQuote(buf, v.String())
	default:
		panic(fmt.Sprintf("scenario: config digest over unsupported kind %s at %s", v.Kind(), path))
	}
	return append(buf, '\n')
}
