// Package ids implements the 256-bit identifier keyspace shared by IPFS
// peer IDs and content identifiers (CIDs), together with the XOR distance
// metric that underlies Kademlia routing.
//
// In the real IPFS network a peer ID is derived from the public key of the
// node's key pair and a CID is derived from the hash of the content; both
// live in the same 256-bit keyspace after hashing, which is what allows the
// DHT to store provider records "close" to a CID. This package reproduces
// exactly that structure: Key is the raw keyspace point, PeerID and CID are
// thin domain types over it, and Distance/CommonPrefixLen implement the XOR
// metric from Maymounkov & Mazières (Kademlia, IPTPS 2002).
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// KeyLen is the length of a keyspace identifier in bytes.
const KeyLen = 32

// KeyBits is the length of a keyspace identifier in bits.
const KeyBits = KeyLen * 8

// Key is a point in the 256-bit Kademlia keyspace. Keys are comparable and
// can be used as map keys. The zero Key is a valid (if unlikely) identifier.
type Key [KeyLen]byte

// KeyFromBytes hashes arbitrary bytes into the keyspace using SHA-256.
// This mirrors how IPFS derives DHT keys from both peer IDs and CIDs.
func KeyFromBytes(b []byte) Key {
	return Key(sha256.Sum256(b))
}

// KeyFromUint64 derives a Key from a 64-bit seed. It is a convenience for
// deterministic tests and scenario generation: distinct seeds yield distinct,
// well-distributed keys.
func KeyFromUint64(v uint64) Key {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return KeyFromBytes(buf[:])
}

// Xor returns the bitwise XOR of two keys, i.e. the Kademlia distance
// between them expressed as a keyspace point. It works on 64-bit words.
func (k Key) Xor(o Key) Key {
	var d Key
	for i := 0; i < KeyLen; i += 8 {
		binary.BigEndian.PutUint64(d[i:], binary.BigEndian.Uint64(k[i:])^binary.BigEndian.Uint64(o[i:]))
	}
	return d
}

// Cmp compares two keys as big-endian unsigned integers, one 64-bit word
// at a time. It returns -1 if k < o, 0 if equal, and 1 if k > o.
func (k Key) Cmp(o Key) int {
	for i := 0; i < KeyLen; i += 8 {
		a, b := binary.BigEndian.Uint64(k[i:]), binary.BigEndian.Uint64(o[i:])
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Prefix64 returns the key's leading 64 bits as an unsigned integer.
// For a distance d = a XOR t it orders distances exactly unless two of
// them tie on those bits; Kademlia's nearest-peer selection uses it as
// the cheap first comparison. The pointer receiver reads the word in
// place, where a value receiver would copy all 32 bytes first.
func (k *Key) Prefix64() uint64 {
	return binary.BigEndian.Uint64(k[:8])
}

// IsZero reports whether the key is the all-zero identifier. It ORs
// the four 64-bit words; byte order cannot change a zero test, so it
// reads them little-endian, the native order of the common targets.
func (k Key) IsZero() bool {
	return binary.LittleEndian.Uint64(k[0:])|binary.LittleEndian.Uint64(k[8:])|
		binary.LittleEndian.Uint64(k[16:])|binary.LittleEndian.Uint64(k[24:]) == 0
}

// LeadingZeros returns the number of leading zero bits in the key.
// For a distance key d = a XOR b this equals CommonPrefixLen(a, b).
func (k Key) LeadingZeros() int {
	for i := 0; i < KeyLen; i += 8 {
		if w := binary.BigEndian.Uint64(k[i:]); w != 0 {
			return i*8 + bits.LeadingZeros64(w)
		}
	}
	return KeyBits
}

// Bit returns bit i of the key, counting from the most significant bit
// (bit 0) to the least significant (bit 255).
func (k Key) Bit(i int) int {
	if i < 0 || i >= KeyBits {
		panic(fmt.Sprintf("ids: bit index %d out of range", i))
	}
	return int(k[i/8]>>(7-uint(i%8))) & 1
}

// WithBit returns a copy of the key with bit i (MSB-first indexing) set to
// the given value. It is used by the crawler to craft FindNode targets that
// sweep specific buckets of a remote routing table.
func (k Key) WithBit(i int, v int) Key {
	if i < 0 || i >= KeyBits {
		panic(fmt.Sprintf("ids: bit index %d out of range", i))
	}
	mask := byte(1) << (7 - uint(i%8))
	if v == 0 {
		k[i/8] &^= mask
	} else {
		k[i/8] |= mask
	}
	return k
}

// FlipBit returns a copy of the key with bit i flipped.
func (k Key) FlipBit(i int) Key {
	return k.WithBit(i, 1-k.Bit(i))
}

// String returns the key as lowercase hex.
func (k Key) String() string {
	return hex.EncodeToString(k[:])
}

// CommonPrefixLen returns the number of leading bits shared by a and b.
// It is 256 when a == b. In Kademlia, a peer with common prefix length cpl
// relative to the local node belongs in bucket cpl.
func CommonPrefixLen(a, b Key) int {
	return a.Xor(b).LeadingZeros()
}

// Closer reports whether a is strictly closer to target than b under the
// XOR metric. It compares the two distances word by word without
// materializing them.
func Closer(a, b, target Key) bool {
	for i := 0; i < KeyLen; i += 8 {
		t := binary.BigEndian.Uint64(target[i:])
		da, db := binary.BigEndian.Uint64(a[i:])^t, binary.BigEndian.Uint64(b[i:])^t
		if da != db {
			return da < db
		}
	}
	return false
}
