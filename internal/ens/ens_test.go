package ens

import (
	"testing"

	"tcsb/internal/ids"
)

func TestNamehash(t *testing.T) {
	if NamehashOf("") != (Namehash{}) {
		t.Fatal("empty name should hash to zero node")
	}
	a := NamehashOf("vitalik.eth")
	b := NamehashOf("vitalik.eth")
	if a != b {
		t.Fatal("namehash not deterministic")
	}
	if NamehashOf("vitalik.eth") == NamehashOf("other.eth") {
		t.Fatal("distinct names collide")
	}
	if NamehashOf("a.b.eth") == NamehashOf("b.a.eth") {
		t.Fatal("label order must matter")
	}
	if NamehashOf("MiXeD.eth") != NamehashOf("mixed.eth") {
		t.Fatal("namehash must be case-insensitive")
	}
}

func TestContenthashRoundTrip(t *testing.T) {
	c := ids.CIDFromSeed(7)
	for _, proto := range []Protocol{ProtoIPFS, ProtoIPNS, ProtoSwarm} {
		enc := EncodeContenthash(proto, c)
		p, got, err := DecodeContenthash(enc)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if p != proto {
			t.Fatalf("protocol = %v, want %v", p, proto)
		}
		if got != c {
			t.Fatalf("CID mismatch for %v", proto)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeContenthash([]byte{0x01, 0x02}); err == nil {
		t.Error("unknown prefix accepted")
	}
	// Truncated ipfs-ns payload.
	bad := append([]byte{0xe3, 0x01, 0x01, 0x70, 0x12, 0x20}, make([]byte, 10)...)
	if _, _, err := DecodeContenthash(bad); err == nil {
		t.Error("truncated multihash accepted")
	}
	if ProtoIPFS.String() != "ipfs-ns" || ProtoUnknown.String() != "unknown" {
		t.Error("protocol labels wrong")
	}
}

func TestExtractPipeline(t *testing.T) {
	r1 := NewResolver()
	r2 := NewResolver()

	cidA1 := ids.CIDFromSeed(1)
	cidA2 := ids.CIDFromSeed(2) // update of the same name
	cidB := ids.CIDFromSeed(3)
	cidSwarm := ids.CIDFromSeed(4)

	r1.SetContenthash("alpha.eth", EncodeContenthash(ProtoIPFS, cidA1))
	r1.SetAddr("alpha.eth", "0xabc") // noise
	r1.SetContenthash("alpha.eth", EncodeContenthash(ProtoIPFS, cidA2))
	r1.SetContenthash("swarm.eth", EncodeContenthash(ProtoSwarm, cidSwarm))
	r2.SetContenthash("beta.eth", EncodeContenthash(ProtoIPFS, cidB))
	r2.SetContenthash("ipns.eth", EncodeContenthash(ProtoIPNS, ids.CIDFromSeed(5)))
	r2.SetContenthash("junk.eth", []byte{0xde, 0xad})

	// Records follow the names' first appearance: alpha.eth, beta.eth.
	recs := Extract([]*Resolver{r1, r2})
	if len(recs) != 2 {
		t.Fatalf("extracted %d records, want 2 (ipfs-ns only, latest per name)", len(recs))
	}
	if recs[0].CID != cidA2 {
		t.Errorf("alpha.eth CID = %v, want the later update", recs[0].CID)
	}
	if recs[1].CID != cidB {
		t.Error("beta.eth record wrong")
	}
}

func TestExtractEmpty(t *testing.T) {
	if got := Extract(nil); len(got) != 0 {
		t.Fatalf("Extract(nil) = %v", got)
	}
}

func TestEncodeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown protocol")
		}
	}()
	EncodeContenthash(ProtoUnknown, ids.CIDFromSeed(1))
}
