package scenario

import (
	"reflect"
	"testing"
)

// The clone/snapshot completeness guards. The Scaled-cloning bug class
// (a new Config field silently skipped by a deep copy) bit once
// already; these tests make the failure structural — adding a field to
// Config or World without deciding its Clone/Snapshot treatment fails
// here with instructions, before any aliasing or unfingerprinted
// state can happen at runtime.

// configDeepFields names the Config fields Clone must deep-copy (maps,
// slices, pointers). Everything else must be a plain value kind, which
// struct assignment copies correctly.
var configDeepFields = map[string]bool{
	"ProviderWeights":           true,
	"CloudCountryWeights":       true,
	"ResidentialCountryWeights": true,
}

func TestConfigCloneCompleteness(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Map, reflect.Slice, reflect.Ptr, reflect.Interface, reflect.Chan, reflect.Func:
			if !configDeepFields[f.Name] {
				t.Errorf("new Config field %q has reference kind %s but is not deep-copied: "+
					"handle it in Config.Clone and add it to configDeepFields", f.Name, f.Type.Kind())
			}
		default:
			if configDeepFields[f.Name] {
				t.Errorf("Config field %q is listed as deep-copied but has value kind %s: "+
					"remove it from configDeepFields", f.Name, f.Type.Kind())
			}
		}
	}

	// The declared deep fields must actually be deep-copied: mutating the
	// clone's maps must never reach the original.
	orig := DefaultConfig()
	clone := orig.Clone()
	ov := reflect.ValueOf(&orig).Elem()
	cv := reflect.ValueOf(&clone).Elem()
	for name := range configDeepFields {
		of, cf := ov.FieldByName(name), cv.FieldByName(name)
		if of.Kind() != reflect.Map {
			t.Fatalf("configDeepFields[%q]: only map fields exist today; extend this check for %s",
				name, of.Kind())
		}
		if of.Pointer() == cf.Pointer() {
			t.Errorf("Config.Clone aliases field %q (same backing map)", name)
		}
		key := reflect.ValueOf("__clone_probe__")
		cf.SetMapIndex(key, reflect.ValueOf(123.0))
		if of.MapIndex(key).IsValid() {
			t.Errorf("mutating clone's %q reached the original", name)
		}
	}
}

// worldSnapshotFields lists every World field the Snapshot digest
// captures (directly or through a canonical summary), keyed by field
// name with a note on how. TestWorldSnapshotCompleteness asserts
// this map and worldSnapshotExcluded partition the World struct exactly.
var worldSnapshotFields = map[string]string{
	"Cfg":           "hashed canonically (timeline rewrites mutate it mid-run)",
	"Net":           "per-actor liveness/addresses via the registry walk + total RPC counter",
	"Actors":        "walked in creation order: identity, role, liveness, IP, provider ledger",
	"order":         "walk order + length",
	"servers":       "role list contents",
	"clients":       "role list contents",
	"Monitor":       "streaming accumulator event/class counters",
	"Hydra":         "streaming accumulator counters + cache size + pending lookups",
	"PLHydras":      "deployment count + per-deployment cache size and pending lookups",
	"Gateways":      "count, domains and served totals",
	"IPFSBank":      "covered by the Gateways walk (it is a member)",
	"bankIdx":       "hashed directly",
	"catalog":       "every entry: cid, owner, born/die ticks, persistence",
	"live":          "live index list",
	"tick":          "hashed directly",
	"peerSeq":       "hashed directly",
	"cidSeq":        "hashed directly",
	"attackTargets": "targeted CID list (set once per attack launch)",
	"attackers":     "minted sybil identities in creation order",
	"Timing":        "per-phase sketch count/sum/min/max + network link counters",
	"Intern":        "handle-table digest (contents in insertion order)",
}

// worldSnapshotExcluded lists every World field the digest deliberately
// skips, with the reason the skip is sound. A field belongs here only
// if its state is scratch, execution-only, immutable, or fully derived
// from digested state and the deterministic construction.
var worldSnapshotExcluded = map[string]string{
	"Rng":           "opaque math/rand state; a pure function of the seed and the digested tick history",
	"Workers":       "execution knob; the evolution is byte-identical for every value",
	"DB":            "immutable address-plan database",
	"Alloc":         "allocation cursors + RNG; observable effect (actor IPs) is digested",
	"DNS":           "append-only registration log, a pure function of the digested construction + arrival history",
	"platformNodes": "construction-time cluster wiring, immutable after build",
	"ring":          "derived from servers + hydra heads via rebuildRing",
	"zipf":          "derived from catalogue size and the replayed RNG stream",
	"zipfTail":      "derived from catalogue size and the replayed RNG stream",
	"viewsBuf":      "per-tick scratch, semantically empty between ticks",
	"attackerSet":   "membership index derived from attackers",
}

func TestWorldSnapshotCompleteness(t *testing.T) {
	typ := reflect.TypeOf(World{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, digested := worldSnapshotFields[name]
		why, excluded := worldSnapshotExcluded[name]
		switch {
		case digested && excluded:
			t.Errorf("World field %q is listed both digested and excluded (excluded as: %s)", name, why)
		case !digested && !excluded:
			t.Errorf("new World field %q has no snapshot treatment: walk it in World.Snapshot "+
				"and add it to worldSnapshotFields, or justify skipping it in worldSnapshotExcluded", name)
		}
	}
	// And the lists must not drift ahead of the struct either.
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range worldSnapshotFields {
		if !fields[name] {
			t.Errorf("worldSnapshotFields lists %q, which is not a World field", name)
		}
	}
	for name := range worldSnapshotExcluded {
		if !fields[name] {
			t.Errorf("worldSnapshotExcluded lists %q, which is not a World field", name)
		}
	}
}

// TestSnapshotDetectsEvolution pins that the digest is sensitive: a
// world that has evolved (ticks, interventions, arrivals) never shares
// a snapshot with its earlier self, while an untouched world is stable.
func TestSnapshotDetectsEvolution(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.05)
	cfg.Seed = 7
	w := NewWorld(cfg)

	s0 := w.Snapshot()
	if s := w.Snapshot(); s != s0 {
		t.Fatalf("snapshot of an untouched world is unstable:\n%+v\n%+v", s0, s)
	}

	w.StepTick()
	s1 := w.Snapshot()
	if s1 == s0 {
		t.Fatal("a tick left the snapshot unchanged")
	}
	if w.Tick() != 1 {
		t.Fatalf("tick = %d, want 1", w.Tick())
	}

	w.ProviderArrival("choopa", 3)
	s2 := w.Snapshot()
	if s2.Servers != s1.Servers+3 {
		t.Fatalf("arrival: servers %d, want %d", s2.Servers, s1.Servers+3)
	}
	if s2.Digest == s1.Digest {
		t.Fatal("arrival left the digest unchanged")
	}

	// Config rewrites are state too (timeline drift actions mutate the
	// live config): the digest must notice them.
	w.ScaleResidentialChurn(2)
	if s3 := w.Snapshot(); s3.Digest == s2.Digest {
		t.Fatal("config rewrite left the digest unchanged")
	}

	// Identical construction yields identical snapshots (the property
	// the timeline.digest rows rest on).
	w2 := NewWorld(cfg)
	w2.StepTick()
	if s := w2.Snapshot(); s != s1 {
		t.Fatalf("rebuilt world diverges:\n%+v\n%+v", s, s1)
	}
}
