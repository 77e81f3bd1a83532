// Package ens simulates the Ethereum Name Service pipeline of the paper
// (Sections 2, 3 and 7): resolver smart contracts whose event logs record
// setContenthash(node, hash) calls (EIP-1577), a registry of names, and
// the extraction pipeline that filters the logs for ipfs-ns content
// hashes and yields the CIDs whose providers are then resolved via the
// DHT.
//
// Content hashes follow the EIP-1577 multicodec framing closely enough to
// exercise a real decoder: a protocol prefix (ipfs-ns 0xe3 0x01, ipns-ns
// 0xe5 0x01, swarm 0xe4 0x01) followed by a cidv1 marker and the 32-byte
// digest.
package ens

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"tcsb/internal/ids"
)

// Namehash is the 32-byte node identifier ENS derives from a name.
type Namehash [32]byte

// NamehashOf computes a namehash. The real algorithm hashes label-wise;
// the recursive structure is preserved here (hash of parent hash + label
// hash), which is all the pipeline depends on.
func NamehashOf(name string) Namehash {
	var node [32]byte
	if name == "" {
		return node
	}
	labels := strings.Split(strings.ToLower(name), ".")
	for i := len(labels) - 1; i >= 0; i-- {
		lh := sha256.Sum256([]byte(labels[i]))
		node = sha256.Sum256(append(node[:], lh[:]...))
	}
	return node
}

// Protocol identifies the namespace of a content hash.
type Protocol int

// Content-hash namespaces seen in the wild; the paper filters for
// ipfs-ns.
const (
	ProtoUnknown Protocol = iota
	ProtoIPFS
	ProtoIPNS
	ProtoSwarm
)

// String returns the EIP-1577 namespace label.
func (p Protocol) String() string {
	switch p {
	case ProtoIPFS:
		return "ipfs-ns"
	case ProtoIPNS:
		return "ipns-ns"
	case ProtoSwarm:
		return "swarm-ns"
	}
	return "unknown"
}

var (
	prefixIPFS  = []byte{0xe3, 0x01, 0x01, 0x70} // ipfs-ns, cidv1, dag-pb
	prefixIPNS  = []byte{0xe5, 0x01, 0x01, 0x72}
	prefixSwarm = []byte{0xe4, 0x01, 0x01, 0xfa}
)

// EncodeContenthash builds an EIP-1577 content hash for a CID under the
// given protocol.
func EncodeContenthash(p Protocol, c ids.CID) []byte {
	var prefix []byte
	switch p {
	case ProtoIPFS:
		prefix = prefixIPFS
	case ProtoIPNS:
		prefix = prefixIPNS
	case ProtoSwarm:
		prefix = prefixSwarm
	default:
		panic("ens: cannot encode unknown protocol")
	}
	k := c.Key()
	out := make([]byte, 0, len(prefix)+2+len(k))
	out = append(out, prefix...)
	out = append(out, 0x12, 0x20) // sha2-256 multihash header
	out = append(out, k[:]...)
	return out
}

// DecodeContenthash parses a content hash, returning its protocol and —
// for ipfs-ns — the embedded CID.
func DecodeContenthash(b []byte) (Protocol, ids.CID, error) {
	switch {
	case bytes.HasPrefix(b, prefixIPFS):
		return decodeDigest(ProtoIPFS, b[len(prefixIPFS):])
	case bytes.HasPrefix(b, prefixIPNS):
		return decodeDigest(ProtoIPNS, b[len(prefixIPNS):])
	case bytes.HasPrefix(b, prefixSwarm):
		return decodeDigest(ProtoSwarm, b[len(prefixSwarm):])
	}
	return ProtoUnknown, ids.CID{}, fmt.Errorf("ens: unknown contenthash prefix %s", hex.EncodeToString(firstN(b, 4)))
}

func decodeDigest(p Protocol, rest []byte) (Protocol, ids.CID, error) {
	if len(rest) != 2+32 || rest[0] != 0x12 || rest[1] != 0x20 {
		return p, ids.CID{}, fmt.Errorf("ens: malformed %s multihash", p)
	}
	var k ids.Key
	copy(k[:], rest[2:])
	return p, ids.CIDFromKey(k), nil
}

func firstN(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}

// Event is one setContenthash log entry as Etherscan would return it.
type Event struct {
	Block       uint64
	Node        Namehash
	Contenthash []byte
	// Function is the selector name; the pipeline filters for
	// "setContenthash" (other record updates appear in real logs).
	Function string
}

// Resolver is a simulated resolver contract accumulating an event log.
type Resolver struct {
	events []Event
	block  uint64
}

// NewResolver creates a resolver contract with an empty log.
func NewResolver() *Resolver { return &Resolver{} }

// SetContenthash records a content-hash update for a name.
func (r *Resolver) SetContenthash(name string, hash []byte) {
	r.block++
	r.events = append(r.events, Event{
		Block:       r.block,
		Node:        NamehashOf(name),
		Contenthash: append([]byte(nil), hash...),
		Function:    "setContenthash",
	})
}

// SetAddr records a non-contenthash update (noise the extractor must
// filter out).
func (r *Resolver) SetAddr(name string, ethAddr string) {
	r.block++
	r.events = append(r.events, Event{
		Block:    r.block,
		Node:     NamehashOf(name),
		Function: "setAddr",
	})
}

// Events returns the full event log (the Etherscan API traversal).
func (r *Resolver) Events() []Event { return r.events }

// Record is one extracted ipfs-ns mapping: the CID a name points to and
// the block of the update that set it.
type Record struct {
	CID   ids.CID
	Block uint64
}

// Extract runs the paper's pipeline over a set of resolver contracts:
// traverse all event logs, filter for setContenthash, decode, keep
// ipfs_ns records, and keep only the latest update per name. Records
// follow the order in which their names first appear.
func Extract(resolvers []*Resolver) []Record {
	latest := make(map[Namehash]Record)
	order := make([]Namehash, 0)
	for _, r := range resolvers {
		for _, ev := range r.Events() {
			if ev.Function != "setContenthash" {
				continue
			}
			proto, cid, err := DecodeContenthash(ev.Contenthash)
			if err != nil || proto != ProtoIPFS {
				continue
			}
			rec := Record{CID: cid, Block: ev.Block}
			prev, ok := latest[ev.Node]
			if !ok {
				order = append(order, ev.Node)
				latest[ev.Node] = rec
			} else if ev.Block >= prev.Block {
				latest[ev.Node] = rec
			}
		}
	}
	out := make([]Record, 0, len(latest))
	for _, n := range order {
		out = append(out, latest[n])
	}
	return out
}
