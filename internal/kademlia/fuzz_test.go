package kademlia

import (
	"encoding/binary"
	"testing"

	"tcsb/internal/ids"
)

// FuzzTableInsert drives a routing table through an arbitrary sequence
// of inserts and nearest-peer queries decoded from the fuzz input.
// Invariants:
//
//   - no panic, whatever the operation order;
//   - every query's AppendNearest answer equals the brute-force
//     reference (SortByDistance over AllPeers) at that state;
//   - every bucket respects its capacity bound k;
//   - the table never stores its own key (self-exclusion);
//   - Len agrees with the bucket occupancy sum, and every stored
//     contact sits in the bucket its common prefix length dictates;
//   - the bucket slice ends at the deepest non-empty bucket.
//
// The input is consumed as records of 9 bytes: one opcode byte and a
// uint64 seed. Opcode 0 adds the seed's peer, 1 adds it with stale
// replacement, and 2 queries the seed's key for the opcode byte / 3
// nearest peers (0 to 85, so windows past selectorInline occur). The
// seed corpus under testdata/fuzz/FuzzTableInsert covers plain fills,
// duplicate refreshes, self-inserts, stale replacement and queries
// interleaved with inserts.
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
		tb := New(self.Key(), K)
		clock := int64(0)
		for off := 0; off+9 <= len(data); off += 9 {
			op := data[off] % 3
			seed := binary.BigEndian.Uint64(data[off+1 : off+9])
			p := ids.PeerIDFromSeed(seed)
			clock++
			switch op {
			case 0:
				tb.Add(Contact{Peer: p, LastSeen: clock})
			case 1:
				tb.AddReplacingStale(Contact{Peer: p, LastSeen: clock}, clock-10)
			case 2:
				target, n := p.Key(), int(data[off]/3)
				checkNearest(t, "fuzzed query", tb.AppendNearest(nil, target, n), tb.AllPeers(), target, n)
			}
		}

		total := 0
		for cpl, size := range tb.BucketSizes() {
			if size > tb.K() {
				t.Fatalf("bucket %d holds %d contacts, capacity %d", cpl, size, tb.K())
			}
			total += size
		}
		if total != tb.Len() {
			t.Fatalf("Len() = %d but buckets sum to %d", tb.Len(), total)
		}
		checkTrimmed(t, "fuzzed table", tb)
		if tb.Contains(self) {
			t.Fatal("table stored its own key")
		}
		for _, p := range tb.AllPeers() {
			if p.Key() == tb.Self() {
				t.Fatal("AllPeers returned the table's own key")
			}
			want := ids.CommonPrefixLen(tb.Self(), p.Key())
			if tb.BucketIndex(p.Key()) != want {
				t.Fatalf("peer in wrong bucket: got %d, want %d", tb.BucketIndex(p.Key()), want)
			}
		}
	})
}
