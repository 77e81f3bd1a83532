package ids

import "testing"

// The determinism of every dataset in the repository bottoms out in this
// file's pins: the identifier derivations and the splitmix64 stream
// splitter are the atoms the sharded tick engine and the campaign
// fixtures build their byte-identical guarantee on. These are frozen
// regression values — promoted, like the maddr corpus table, from
// fuzz-style exploration into exact expectations — so an accidental
// algorithm change fails here before it silently re-seeds every world.

// TestSplitMix64ReferenceVectors pins the generator against the
// published splitmix64 test vectors (first two outputs of the stream
// seeded with 0): our SplitMix64 is the stream's output function, so
// feeding it state 0 and then state 0+gamma must reproduce them.
func TestSplitMix64ReferenceVectors(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	vectors := []struct {
		state uint64
		want  uint64
	}{
		{0, 0xe220a8397b1dcdaf},
		{gamma, 0x6e789e6aa1b965f4},
	}
	for _, v := range vectors {
		if got := SplitMix64(v.state); got != v.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", v.state, got, v.want)
		}
	}
}

// TestDeriveSeedLabelSensitivity pins the stream-splitting contract the
// shard engine depends on: for a fixed label arity — every call site
// derives with exactly (tick, shard) — distinct label tuples, including
// the same labels in a different order, must yield distinct sub-seeds,
// reproducibly, and distinct master seeds must separate the streams.
func TestDeriveSeedLabelSensitivity(t *testing.T) {
	if DeriveSeed(1, 2, 3) != 0x177e1724ac4d6f6 {
		t.Errorf("DeriveSeed(1,2,3) drifted: %#x", DeriveSeed(1, 2, 3))
	}
	for _, master := range []uint64{1, 2, 0xdead} {
		seen := map[uint64][2]uint64{}
		for tick := uint64(0); tick < 16; tick++ {
			for shard := uint64(0); shard < 16; shard++ {
				s := DeriveSeed(master, tick, shard)
				if prev, dup := seen[s]; dup {
					t.Fatalf("DeriveSeed(%d, %d, %d) collides with DeriveSeed(%d, %v)",
						master, tick, shard, master, prev)
				}
				seen[s] = [2]uint64{tick, shard}
				if s != DeriveSeed(master, tick, shard) {
					t.Fatalf("DeriveSeed(%d, %d, %d) not reproducible", master, tick, shard)
				}
			}
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Error("master seed does not separate streams")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("label order does not separate streams")
	}
}

// TestDeriveSeedCrossArityDegeneracy pins a discovered limitation as a
// frozen fact: across DIFFERENT label arities the chained mix can
// collapse when a label equals the master (mixing a label l into state
// s is s' = M(s ^ M(l)), so master==label cancels to M(0), and XOR
// commutativity then aligns prefix and extension tuples). The engine is
// immune — every caller derives with a fixed (tick, shard) arity — but
// if a future caller mixes arities, this pin is the warning sign. A
// deliberate mixer change that removes the degeneracy should flip these
// assertions (and re-seeds every world, so it must regenerate
// EXPERIMENTS.md).
func TestDeriveSeedCrossArityDegeneracy(t *testing.T) {
	if DeriveSeed(1, 1, 0) != DeriveSeed(1, 1) {
		t.Error("known cross-arity degeneracy (1,[1,0])==(1,[1]) vanished; " +
			"if the mixer changed on purpose, update this pin and EXPERIMENTS.md")
	}
	if DeriveSeed(1, 1, 1) != DeriveSeed(1, 0) {
		t.Error("known cross-arity degeneracy (1,[1,1])==(1,[0]) vanished; " +
			"if the mixer changed on purpose, update this pin and EXPERIMENTS.md")
	}
}

// TestIdentifierStringPins freezes the exact rendered forms of seeded
// identifiers. Scenario populations, log excerpts and the CLI's
// byte-identical stdout all embed these strings; a change to the
// encoding or the seed derivation re-labels every world.
func TestIdentifierStringPins(t *testing.T) {
	if got := PeerIDFromSeed(1).String(); got != "12D3Koo7nepbbelep5u3ikz7g4s5bdft" {
		t.Errorf("PeerIDFromSeed(1) = %q", got)
	}
	if got := CIDFromSeed(1).String(); got != "bafyq3vaautdohgd2novdo2s47i3hi" {
		t.Errorf("CIDFromSeed(1) = %q", got)
	}
	// Seed 0 exercises the all-zero-prefix path of the encoders.
	p0, c0 := PeerIDFromSeed(0), CIDFromSeed(0)
	if p0.String() == PeerIDFromSeed(1).String() || c0.String() == CIDFromSeed(1).String() {
		t.Error("seed 0 and seed 1 render identically")
	}
	if p0.IsZero() || c0.IsZero() {
		t.Error("seeded identifiers must not be the zero sentinel")
	}
}
