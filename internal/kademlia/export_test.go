package kademlia

import (
	"sort"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
)

// Observers the tests read a table through; the simulator itself only
// adds contacts and asks for the nearest ones.

// newPeers returns an empty identifier table for a test's routing tables.
func newPeers() *intern.Table[ids.PeerID, intern.PeerH] {
	return intern.NewTable[ids.PeerID, intern.PeerH]()
}

// Self returns the local key the table is organized around.
func (t *Table) Self() ids.Key { return t.self }

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Len returns the number of contacts stored.
func (t *Table) Len() int { return t.size }

// Contains reports whether the peer is in the table.
func (t *Table) Contains(p ids.PeerID) bool {
	h, ok := t.peers.Lookup(p)
	if !ok {
		return false
	}
	for _, e := range t.bucket(t.BucketIndex(p.Key())) {
		if e.h == h {
			return true
		}
	}
	return false
}

// AllPeers returns every contact's peer ID. Order is bucket-major and,
// within a bucket, insertion order.
func (t *Table) AllPeers() []ids.PeerID {
	out := make([]ids.PeerID, 0, t.size)
	for i := range t.buckets {
		for _, c := range t.Bucket(i) {
			out = append(out, c.Peer)
		}
	}
	return out
}

// BucketSizes returns the occupancy of each non-empty bucket, keyed by
// common prefix length.
func (t *Table) BucketSizes() map[int]int {
	out := make(map[int]int)
	for i := range t.buckets {
		if len(t.buckets[i]) > 0 {
			out[i] = len(t.buckets[i])
		}
	}
	return out
}

// Bucket returns the contacts of bucket i in insertion order, an evicting
// add standing where the contact it replaced stood.
func (t *Table) Bucket(i int) []Contact {
	if i < 0 {
		return nil
	}
	b := append([]entry(nil), t.bucket(i)...)
	sort.Slice(b, func(x, y int) bool { return b[x].pos < b[y].pos })
	out := make([]Contact, len(b))
	for j, e := range b {
		out[j] = Contact{Peer: t.peers.Value(e.h), LastSeen: e.lastSeen}
	}
	return out
}

// SortByDistance orders peers by XOR distance to target, closest first,
// and returns a new slice: the brute-force specification AppendNearest
// and AppendSelectNearest are checked against.
func SortByDistance(peers []ids.PeerID, target ids.Key) []ids.PeerID {
	out := append([]ids.PeerID(nil), peers...)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key().Xor(target).Cmp(out[j].Key().Xor(target)) < 0
	})
	return out
}
