package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
)

// PeerID identifies a node on the IPFS overlay. In the real network it is
// the multihash of the node's public key; here it is a keyspace point with
// a libp2p-flavoured string form. Peer IDs are stable across restarts by
// default but a node may regenerate its key pair, obtaining a new PeerID —
// a behaviour the paper shows inflates peer counts in naive methodologies.
type PeerID struct {
	k Key
}

// PeerIDFromKey wraps an existing keyspace point as a PeerID.
func PeerIDFromKey(k Key) PeerID { return PeerID{k: k} }

// PeerIDFromSeed deterministically derives a PeerID from a 64-bit seed.
// Scenario generation uses this to create reproducible populations.
func PeerIDFromSeed(seed uint64) PeerID {
	var buf [12]byte
	copy(buf[:4], "peer")
	binary.BigEndian.PutUint64(buf[4:], seed)
	return PeerID{k: KeyFromBytes(buf[:])}
}

// Key returns the DHT keyspace point for this peer: the location in the
// trie where the peer's routing-table neighbourhood lives.
func (p PeerID) Key() Key { return p.k }

// Prefix64 returns the leading 64 bits of the peer's key, read in place
// (see Key.Prefix64).
func (p *PeerID) Prefix64() uint64 { return binary.BigEndian.Uint64(p.k[:8]) }

// IsZero reports whether p is the zero PeerID, used as a "no peer" sentinel.
func (p PeerID) IsZero() bool { return p.k.IsZero() }

// String renders the ID in a recognisable 12D3Koo…-style form (libp2p
// Ed25519 peer IDs share that prefix). Only the first 16 bytes of the key
// are encoded: enough to be unique in any realistic simulation while
// keeping logs readable.
func (p PeerID) String() string {
	return "12D3Koo" + base36(p.k[:16])
}

// Short returns an abbreviated form for logs.
func (p PeerID) Short() string {
	return "12D3Koo" + base36(p.k[:4])
}

// CID identifies a piece of content. In IPFS, CID(d) = h(d) plus
// self-describing metadata; the DHT key for a CID is a further hash of it.
// Both derivations are reproduced here.
type CID struct {
	k Key
}

// CIDFromContent hashes content bytes into a CID, so identical content
// deduplicates to the same identifier and any modification yields a new CID.
func CIDFromContent(data []byte) CID {
	h := sha256.Sum256(data)
	return CID{k: Key(h)}
}

// CIDFromKey wraps an existing keyspace point as a CID.
func CIDFromKey(k Key) CID { return CID{k: k} }

// CIDFromSeed deterministically derives a CID from a seed, for scenario
// generation and tests.
func CIDFromSeed(seed uint64) CID {
	var buf [12]byte
	copy(buf[:4], "cidv")
	binary.BigEndian.PutUint64(buf[4:], seed)
	return CID{k: KeyFromBytes(buf[:])}
}

// Key returns the DHT keyspace point where provider records for this CID
// are stored (the 20 closest peers to this key are the CID's resolvers).
func (c CID) Key() Key { return c.k }

// IsZero reports whether c is the zero CID.
func (c CID) IsZero() bool { return c.k.IsZero() }

// String renders the CID in a bafy…-style base32 form reminiscent of CIDv1.
func (c CID) String() string {
	return "bafy" + base32lower(c.k[:16])
}

const b36alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
const b32alphabet = "abcdefghijklmnopqrstuvwxyz234567"

// base36 encodes bytes in a compact base36 form (no padding). It is not a
// standards-compliant multibase encoding — it only needs to be stable,
// readable and injective for fixed-length input.
func base36(b []byte) string {
	// Treat b as a big-endian integer and repeatedly divide by 36.
	// Fixed input length keeps the output length stable.
	digits := make([]byte, 0, len(b)*2)
	n := make([]byte, len(b))
	copy(n, b)
	zero := func(x []byte) bool {
		for _, v := range x {
			if v != 0 {
				return false
			}
		}
		return true
	}
	for !zero(n) {
		var rem uint
		for i := 0; i < len(n); i++ {
			cur := rem<<8 | uint(n[i])
			n[i] = byte(cur / 36)
			rem = cur % 36
		}
		digits = append(digits, b36alphabet[rem])
	}
	if len(digits) == 0 {
		digits = append(digits, '0')
	}
	// digits are little-endian; reverse.
	var sb strings.Builder
	for i := len(digits) - 1; i >= 0; i-- {
		sb.WriteByte(digits[i])
	}
	return sb.String()
}

// base32lower encodes bytes in unpadded lowercase base32 (RFC 4648 order
// shifted to letters-first, as used by CIDv1 base32 strings).
func base32lower(b []byte) string {
	var sb strings.Builder
	var acc uint
	var nbits uint
	for _, v := range b {
		acc = acc<<8 | uint(v)
		nbits += 8
		for nbits >= 5 {
			nbits -= 5
			sb.WriteByte(b32alphabet[(acc>>nbits)&31])
		}
	}
	if nbits > 0 {
		sb.WriteByte(b32alphabet[(acc<<(5-nbits))&31])
	}
	return sb.String()
}
