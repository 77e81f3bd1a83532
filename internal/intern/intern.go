// Package intern assigns dense uint32 handles to the fat identifiers a
// simulated world touches — 32-byte ids.PeerID / ids.CID keyspace points
// and netip.Addr values — so hot identifier-keyed state (provider
// ledgers, trace accumulators, routing scratch) can go columnar: flat
// slices indexed by handle instead of nested Go maps keyed on 32-byte
// structs. At scale.10x the distinct-identifier population is what
// bounds peak RSS, and a handle is 4 bytes where the key was 32.
//
// # Determinism contract
//
// Tables are append-only and assignment order is construction order:
// the Nth distinct identifier interned receives handle N, forever. All
// writes (Intern calls) happen at driver-serial points of the engine —
// world construction, ID mints, netsim.Network.Attach/SetAddrs, effect
// lane merges, trace.Accum.Observe, routing-table adds (kademlia's Add
// and AddReplacingStale, replayed at lane merges or called while
// building and refreshing the topology) — which the
// sharded campaign executes in a fixed order that does not depend on
// the -workers value. Parallel phases only read (Lookup/Value/Values),
// which is safe against a quiescent table. The result is that handle
// tables are byte-identical across worker counts (Tables.Digest folds into
// scenario World.Snapshot, so the worker-determinism tests check it).
//
// Handles are derived state: they never appear in config digests,
// stdout, or any rendered output — only the canonical identifiers they
// resolve to do.
package intern

import (
	"hash/fnv"
	"net/netip"

	"tcsb/internal/ids"
)

// PeerH is a dense handle for an ids.PeerID. Handle 0 is always the
// zero PeerID (the "no peer" sentinel), pre-interned at table creation.
type PeerH uint32

// CIDH is a dense handle for an ids.CID. Handle 0 is always the zero CID.
type CIDH uint32

// AddrH is a dense handle for a netip.Addr. Handle 0 is always the
// zero (invalid) address.
type AddrH uint32

// Table is an append-only bijection between identifiers of type K and
// dense handles of type H. The zero value of K is pre-interned as
// handle 0. Intern is serial-only; Lookup/Value/Values are safe for
// concurrent readers while no Intern call is in flight (the engine's
// parallel phases never intern).
type Table[K comparable, H ~uint32] struct {
	fwd map[K]H
	rev []K
}

// NewTable creates a table with the zero K pre-interned as handle 0.
func NewTable[K comparable, H ~uint32]() *Table[K, H] {
	t := &Table[K, H]{fwd: make(map[K]H)}
	var zero K
	t.fwd[zero] = 0
	t.rev = append(t.rev, zero)
	return t
}

// Intern returns the handle for k, assigning the next dense handle if k
// has not been seen. Serial-only: callers must be at a driver-serial
// point (see the package contract).
func (t *Table[K, H]) Intern(k K) H {
	if h, ok := t.fwd[k]; ok {
		return h
	}
	h := H(len(t.rev))
	t.fwd[k] = h
	t.rev = append(t.rev, k)
	return h
}

// Lookup returns the handle for k if it has been interned. Read-only.
func (t *Table[K, H]) Lookup(k K) (H, bool) {
	h, ok := t.fwd[k]
	return h, ok
}

// Value returns the identifier behind a handle. Read-only.
func (t *Table[K, H]) Value(h H) K { return t.rev[h] }

// Values returns the identifier column, indexed by handle. It is a
// read-only view, valid until the next Intern call: hot loops that
// resolve many handles read it once instead of calling Value each time.
func (t *Table[K, H]) Values() []K { return t.rev }

// Tables bundles the three handle tables of one world. One bundle is
// owned by the world's netsim.Network and shared by every component of
// that world; independent worlds (what-if pairs, service fleets) each
// get their own bundle.
type Tables struct {
	Peers *Table[ids.PeerID, PeerH]
	CIDs  *Table[ids.CID, CIDH]
	Addrs *Table[netip.Addr, AddrH]
}

// NewTables creates the bundle with all three zero values pre-interned.
func NewTables() *Tables {
	return &Tables{
		Peers: NewTable[ids.PeerID, PeerH](),
		CIDs:  NewTable[ids.CID, CIDH](),
		Addrs: NewTable[netip.Addr, AddrH](),
	}
}

// Peer interns a peer ID (serial-only).
func (t *Tables) Peer(p ids.PeerID) PeerH { return t.Peers.Intern(p) }

// CID interns a content ID (serial-only).
func (t *Tables) CID(c ids.CID) CIDH { return t.CIDs.Intern(c) }

// Addr interns an address (serial-only).
func (t *Tables) Addr(a netip.Addr) AddrH { return t.Addrs.Intern(a) }

// Digest folds the canonical contents of all three tables — every
// identifier in insertion order — into one FNV-1a hash. Two worlds
// whose construction histories interned the same identifiers in the
// same order digest equal; the scenario snapshot folds this in so the
// worker-determinism tests verify handle assignment for free.
func (t *Tables) Digest() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	u32 := func(v uint32) {
		buf[0] = byte(v >> 24)
		buf[1] = byte(v >> 16)
		buf[2] = byte(v >> 8)
		buf[3] = byte(v)
		h.Write(buf[:])
	}
	u32(uint32(len(t.Peers.rev)))
	for _, p := range t.Peers.rev {
		k := p.Key()
		h.Write(k[:])
	}
	u32(uint32(len(t.CIDs.rev)))
	for _, c := range t.CIDs.rev {
		k := c.Key()
		h.Write(k[:])
	}
	u32(uint32(len(t.Addrs.rev)))
	for _, a := range t.Addrs.rev {
		b, _ := a.MarshalBinary()
		u32(uint32(len(b)))
		h.Write(b)
	}
	return h.Sum64()
}
