package kademlia

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"tcsb/internal/ids"
)

// FuzzTableInsert drives routing tables through an arbitrary sequence
// of inserts and nearest-peer queries decoded from the fuzz input. Every
// input runs on a node-sized table (k = K, one band per bucket) and a
// Hydra-sized one (k = 8·K, buckets split into sub-bands).
// Invariants:
//
//   - no panic, whatever the operation order;
//   - after every operation each table equals a reference model
//     (refTable): per-bucket contact lists in insertion order, with
//     stale replacement overwriting the first oldest contact in place,
//     and every add reports what the model reports;
//   - every query's AppendNearest answer equals the brute-force
//     reference (SortByDistance over AllPeers) at that state;
//   - the storage invariants of checkLayout hold at the end: the
//     bucket slice ends at the deepest non-empty bucket, Len is the
//     occupancy sum, contacts sit in the right bucket and sub-band, and
//     ranks are a permutation;
//   - the table never stores its own key (self-exclusion).
//
// The input is consumed as records of 9 bytes: one opcode byte and a
// uint64 seed. Opcode 0 adds the seed's peer, 1 adds it with stale
// replacement (evicting contacts last seen more than two ticks ago),
// and 2 queries the seed's key for the opcode byte / 3 nearest peers (0
// to 85, so windows past selectorInline occur). The clock advances one
// tick every four records, so LastSeen ties are common and eviction's
// choice among equally old contacts is checked too. The seed corpus
// under testdata/fuzz/FuzzTableInsert covers plain fills, duplicate
// refreshes, self-inserts, stale replacement, queries interleaved with
// inserts, and a 160-contact bucket overfilled and then evicted from.
func FuzzTableInsert(f *testing.F) {
	f.Add([]byte{})
	// A run of straight inserts.
	fill := make([]byte, 0, 9*40)
	for i := 0; i < 40; i++ {
		rec := make([]byte, 9)
		rec[0] = 0
		binary.BigEndian.PutUint64(rec[1:], uint64(i))
		fill = append(fill, rec...)
	}
	f.Add(fill)
	// Duplicate refreshes of one peer, with a query in between.
	dup := make([]byte, 0, 9*6)
	for _, op := range []byte{0, 0, 1, 0, 2, 0} {
		rec := make([]byte, 9)
		rec[0] = op
		binary.BigEndian.PutUint64(rec[1:], 7)
		dup = append(dup, rec...)
	}
	f.Add(dup)
	// Self-insert attempts (seed 0xdead maps onto the table's own key
	// below) mixed with stale-replacement inserts.
	selfish := make([]byte, 0, 9*4)
	for _, seed := range []uint64{0xdead, 1, 0xdead, 2} {
		rec := make([]byte, 9)
		rec[0] = 1
		binary.BigEndian.PutUint64(rec[1:], seed)
		selfish = append(selfish, rec...)
	}
	f.Add(selfish)
	// Queries of growing width over the filled table: opcode bytes 2, 5,
	// 62, 122, 200 and 254 ask for 0, 1, 20, 40, 66 and 84 peers.
	queries := append([]byte(nil), fill...)
	for i, op := range []byte{2, 5, 62, 122, 200, 254} {
		rec := make([]byte, 9)
		rec[0] = op
		binary.BigEndian.PutUint64(rec[1:], uint64(1000+i))
		queries = append(queries, rec...)
	}
	f.Add(queries)

	f.Fuzz(func(t *testing.T, data []byte) {
		self := ids.PeerIDFromSeed(0xdead)
		for _, k := range []int{K, 8 * K} {
			tb := New(self.Key(), k, newPeers())
			ref := &refTable{self: self.Key(), k: k, buckets: map[int][]Contact{}}
			for off := 0; off+9 <= len(data); off += 9 {
				op := data[off] % 3
				seed := binary.BigEndian.Uint64(data[off+1 : off+9])
				now := int64(off/9/4) + 1
				c := Contact{Peer: ids.PeerIDFromSeed(seed), LastSeen: now}
				switch op {
				case 0:
					if got, want := tb.Add(c), ref.add(c, -1); got != want {
						t.Fatalf("k=%d record %d: Add = %v, model %v", k, off/9, got, want)
					}
				case 1:
					if got, want := tb.AddReplacingStale(c, now-2), ref.add(c, now-2); got != want {
						t.Fatalf("k=%d record %d: AddReplacingStale = %v, model %v", k, off/9, got, want)
					}
				case 2:
					target, n := c.Peer.Key(), int(data[off]/3)
					checkNearest(t, "fuzzed query", tb.AppendNearest(nil, target, n), tb.AllPeers(), target, n)
				}
				ref.check(t, fmt.Sprintf("k=%d record %d", k, off/9), tb)
			}
			checkLayout(t, "fuzzed table", tb)
			if tb.Contains(self) {
				t.Fatal("table stored its own key")
			}
		}
	})
}

// refTable is the reference model of a routing table: per-bucket
// contact lists in insertion order. A full bucket admits a new peer only
// by stale replacement, which overwrites the first contact with the
// oldest LastSeen in place.
type refTable struct {
	self    ids.Key
	k       int
	buckets map[int][]Contact
}

// add applies Add (staleBefore <= 0) or AddReplacingStale and reports
// whether the peer is stored afterwards.
func (r *refTable) add(c Contact, staleBefore int64) bool {
	if c.Peer.Key() == r.self {
		return false
	}
	idx := ids.CommonPrefixLen(r.self, c.Peer.Key())
	b := r.buckets[idx]
	for i := range b {
		if b[i].Peer == c.Peer {
			b[i].LastSeen = max(b[i].LastSeen, c.LastSeen)
			return true
		}
	}
	if len(b) < r.k {
		r.buckets[idx] = append(b, c)
		return true
	}
	if staleBefore <= 0 {
		return false
	}
	oldest := 0
	for i := range b {
		if b[i].LastSeen < b[oldest].LastSeen {
			oldest = i
		}
	}
	if b[oldest].LastSeen >= staleBefore {
		return false
	}
	b[oldest] = c
	return true
}

// check fails unless tb holds exactly the model's contacts, bucket by
// bucket in insertion order, with the same LastSeen values.
func (r *refTable) check(t *testing.T, label string, tb *Table) {
	t.Helper()
	n := 0
	for idx, want := range r.buckets {
		if got := tb.Bucket(idx); !slices.Equal(got, want) {
			t.Fatalf("%s: bucket %d holds %v, model %v", label, idx, got, want)
		}
		n += len(want)
	}
	if tb.Len() != n {
		t.Fatalf("%s: table holds %d contacts, model %d", label, tb.Len(), n)
	}
}
