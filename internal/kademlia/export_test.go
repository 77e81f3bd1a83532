package kademlia

import (
	"sort"

	"tcsb/internal/ids"
)

// Observers the tests read a table through; the simulator itself only
// adds contacts and asks for the nearest ones.

// Self returns the local key the table is organized around.
func (t *Table) Self() ids.Key { return t.self }

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Len returns the number of contacts stored.
func (t *Table) Len() int { return t.size }

// Contains reports whether the peer is in the table.
func (t *Table) Contains(p ids.PeerID) bool {
	return indexOf(t.bucket(t.BucketIndex(p.Key())), &p) >= 0
}

// AllPeers returns every contact's peer ID. Order is bucket-major and
// deterministic for a given insertion history.
func (t *Table) AllPeers() []ids.PeerID {
	out := make([]ids.PeerID, 0, t.size)
	for i := range t.buckets {
		for _, c := range t.buckets[i] {
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

// Bucket returns a copy of the contacts in bucket i.
func (t *Table) Bucket(i int) []Contact {
	if i < 0 {
		return nil
	}
	return append([]Contact(nil), t.bucket(i)...)
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
