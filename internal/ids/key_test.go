package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyFromBytesDeterministic(t *testing.T) {
	a := KeyFromBytes([]byte("hello"))
	b := KeyFromBytes([]byte("hello"))
	if a != b {
		t.Fatalf("same input produced different keys: %s vs %s", a, b)
	}
	c := KeyFromBytes([]byte("hello!"))
	if a == c {
		t.Fatalf("different inputs produced the same key")
	}
}

func TestXorSelfIsZero(t *testing.T) {
	k := KeyFromUint64(42)
	if d := k.Xor(k); !d.IsZero() {
		t.Fatalf("k xor k = %s, want zero", d)
	}
	// A single set bit anywhere, in any word, makes a key non-zero.
	for i := 0; i < KeyBits; i++ {
		if one := (Key{}).WithBit(i, 1); one.IsZero() {
			t.Fatalf("key with only bit %d set reports IsZero", i)
		}
	}
}

func TestXorProperties(t *testing.T) {
	// XOR metric axioms: symmetry and the triangle-ish identity
	// d(a,b) xor d(b,c) == d(a,c).
	f := func(sa, sb, sc uint64) bool {
		a, b, c := KeyFromUint64(sa), KeyFromUint64(sb), KeyFromUint64(sc)
		if a.Xor(b) != b.Xor(a) {
			return false
		}
		return a.Xor(b).Xor(b.Xor(c)) == a.Xor(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmp(t *testing.T) {
	var a, b Key
	b[KeyLen-1] = 1
	if a.Cmp(b) != -1 {
		t.Errorf("Cmp(0, 1) = %d, want -1", a.Cmp(b))
	}
	if b.Cmp(a) != 1 {
		t.Errorf("Cmp(1, 0) = %d, want 1", b.Cmp(a))
	}
	if a.Cmp(a) != 0 {
		t.Errorf("Cmp(a, a) = %d, want 0", a.Cmp(a))
	}
}

func TestCmpTotalOrder(t *testing.T) {
	f := func(sa, sb uint64) bool {
		a, b := KeyFromUint64(sa), KeyFromUint64(sb)
		return a.Cmp(b) == -b.Cmp(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeadingZeros(t *testing.T) {
	var k Key
	if got := k.LeadingZeros(); got != KeyBits {
		t.Errorf("zero key LeadingZeros = %d, want %d", got, KeyBits)
	}
	k[0] = 0x80
	if got := k.LeadingZeros(); got != 0 {
		t.Errorf("MSB-set key LeadingZeros = %d, want 0", got)
	}
	var k2 Key
	k2[1] = 0x01 // 8 zero bits + 7 zero bits
	if got := k2.LeadingZeros(); got != 15 {
		t.Errorf("LeadingZeros = %d, want 15", got)
	}
}

// TestWordwiseMatchesBytewise pins the 64-bit-word Xor, Cmp,
// LeadingZeros, Closer and Prefix64 to byte-at-a-time references, on
// keys that differ only in one chosen byte so every word position and
// every byte inside a word decides some comparison.
func TestWordwiseMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sign := func(a, b byte) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	for trial := 0; trial < 2000; trial++ {
		var a, b, target Key
		rng.Read(a[:])
		rng.Read(target[:])
		b = a
		pos := rng.Intn(KeyLen)
		b[pos] = byte(rng.Intn(256))
		for i := pos + 1; i < KeyLen; i++ {
			if rng.Intn(2) == 0 {
				b[i] = byte(rng.Intn(256))
			}
		}

		var x Key
		for i := range a {
			x[i] = a[i] ^ b[i]
		}
		if got := a.Xor(b); got != x {
			t.Fatalf("Xor differs from the byte-wise XOR at trial %d", trial)
		}
		cmp := 0
		for i := range a {
			if c := sign(a[i], b[i]); c != 0 {
				cmp = c
				break
			}
		}
		if got := a.Cmp(b); got != cmp {
			t.Fatalf("Cmp = %d, byte-wise %d at trial %d", got, cmp, trial)
		}
		lz := 0
		for lz < KeyBits && x.Bit(lz) == 0 {
			lz++
		}
		if got := x.IsZero(); got != (lz == KeyBits) {
			t.Fatalf("IsZero = %v, bit-wise %v at trial %d", got, lz == KeyBits, trial)
		}
		if got := x.LeadingZeros(); got != lz {
			t.Fatalf("LeadingZeros = %d, bit-wise %d at trial %d", got, lz, trial)
		}
		if got, want := Closer(a, b, target), a.Xor(target).Cmp(b.Xor(target)) < 0; got != want {
			t.Fatalf("Closer = %v, want %v at trial %d", got, want, trial)
		}
		var p uint64
		for i := 0; i < 8; i++ {
			p = p<<8 | uint64(a[i])
		}
		pid := PeerIDFromKey(a)
		if a.Prefix64() != p || pid.Prefix64() != p {
			t.Fatalf("Prefix64 = %x / %x, want %x", a.Prefix64(), pid.Prefix64(), p)
		}
	}
}

func TestBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := KeyFromUint64(rng.Uint64())
		i := rng.Intn(KeyBits)
		for _, v := range []int{0, 1} {
			got := k.WithBit(i, v).Bit(i)
			if got != v {
				t.Fatalf("WithBit(%d,%d).Bit = %d", i, v, got)
			}
		}
	}
}

func TestWithBitDoesNotMutate(t *testing.T) {
	k := KeyFromUint64(99)
	orig := k
	_ = k.WithBit(3, 1-k.Bit(3))
	if k != orig {
		t.Fatal("WithBit mutated its receiver")
	}
}

func TestFlipBitChangesCPL(t *testing.T) {
	k := KeyFromUint64(1234)
	for _, i := range []int{0, 1, 7, 8, 100, KeyBits - 1} {
		f := k.FlipBit(i)
		if cpl := CommonPrefixLen(k, f); cpl != i {
			t.Errorf("CommonPrefixLen(k, k flip bit %d) = %d, want %d", i, cpl, i)
		}
	}
}

func TestCommonPrefixLenSelf(t *testing.T) {
	k := KeyFromUint64(5)
	if cpl := CommonPrefixLen(k, k); cpl != KeyBits {
		t.Errorf("CommonPrefixLen(k,k) = %d, want %d", cpl, KeyBits)
	}
}

func TestCloser(t *testing.T) {
	target := KeyFromUint64(0)
	a := target.FlipBit(255) // differs only in last bit: distance 1
	b := target.FlipBit(0)   // differs in first bit: huge distance
	if !Closer(a, b, target) {
		t.Error("a should be closer to target than b")
	}
	if Closer(b, a, target) {
		t.Error("b should not be closer to target than a")
	}
	if Closer(a, a, target) {
		t.Error("Closer must be strict")
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit(-1) did not panic")
		}
	}()
	var k Key
	k.Bit(-1)
}

func TestPeerIDStringStable(t *testing.T) {
	p := PeerIDFromSeed(1)
	if p.String() != PeerIDFromSeed(1).String() {
		t.Fatal("PeerID string not stable")
	}
	if p.String() == PeerIDFromSeed(2).String() {
		t.Fatal("distinct seeds produced identical PeerID strings")
	}
	if p.String()[:7] != "12D3Koo" {
		t.Fatalf("PeerID string %q missing libp2p-style prefix", p.String())
	}
}

func TestPeerIDStringInjective(t *testing.T) {
	seen := make(map[string]uint64)
	for s := uint64(0); s < 2000; s++ {
		str := PeerIDFromSeed(s).String()
		if prev, ok := seen[str]; ok {
			t.Fatalf("seeds %d and %d collide on %q", prev, s, str)
		}
		seen[str] = s
	}
}

func TestCIDFromContentDedup(t *testing.T) {
	a := CIDFromContent([]byte("same bytes"))
	b := CIDFromContent([]byte("same bytes"))
	if a != b {
		t.Fatal("identical content produced different CIDs")
	}
	c := CIDFromContent([]byte("same bytes."))
	if a == c {
		t.Fatal("modified content kept the same CID")
	}
}

func TestCIDStringPrefix(t *testing.T) {
	c := CIDFromSeed(9)
	if c.String()[:4] != "bafy" {
		t.Fatalf("CID string %q missing bafy prefix", c.String())
	}
}

func TestPeerAndCIDKeyspaceDisjointDerivation(t *testing.T) {
	// A peer and a CID built from the same seed must not land on the same
	// keyspace point: derivations are domain-separated.
	for s := uint64(0); s < 100; s++ {
		if PeerIDFromSeed(s).Key() == CIDFromSeed(s).Key() {
			t.Fatalf("seed %d: peer and CID keys collide", s)
		}
	}
}

func TestBase36ZeroInput(t *testing.T) {
	if got := base36(make([]byte, 4)); got != "0" {
		t.Fatalf("base36(0) = %q, want \"0\"", got)
	}
}

func TestBase32RoundLength(t *testing.T) {
	// 16 bytes -> ceil(128/5) = 26 base32 chars.
	out := base32lower(make([]byte, 16))
	if len(out) != 26 {
		t.Fatalf("base32 output length = %d, want 26", len(out))
	}
}

func BenchmarkXor(b *testing.B) {
	x := KeyFromUint64(1)
	y := KeyFromUint64(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Xor(y)
	}
}

func BenchmarkCommonPrefixLen(b *testing.B) {
	x := KeyFromUint64(1)
	y := KeyFromUint64(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CommonPrefixLen(x, y)
	}
}
