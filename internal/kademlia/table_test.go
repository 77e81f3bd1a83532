package kademlia

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tcsb/internal/ids"
)

func TestAddAndContains(t *testing.T) {
	tab := New(ids.KeyFromUint64(0), K, newPeers())
	p := ids.PeerIDFromSeed(1)
	if !tab.Add(Contact{Peer: p, LastSeen: 1}) {
		t.Fatal("Add failed on empty table")
	}
	if !tab.Contains(p) {
		t.Fatal("Contains false after Add")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestAddSelfRejected(t *testing.T) {
	self := ids.KeyFromUint64(0)
	tab := New(self, K, newPeers())
	if tab.Add(Contact{Peer: ids.PeerIDFromKey(self)}) {
		t.Fatal("table stored its own key")
	}
}

func TestAddIdempotentRefreshesLastSeen(t *testing.T) {
	tab := New(ids.KeyFromUint64(0), K, newPeers())
	p := ids.PeerIDFromSeed(1)
	tab.Add(Contact{Peer: p, LastSeen: 1})
	tab.Add(Contact{Peer: p, LastSeen: 5})
	if tab.Len() != 1 {
		t.Fatalf("duplicate add grew table to %d", tab.Len())
	}
	idx := tab.BucketIndex(p.Key())
	if got := tab.Bucket(idx)[0].LastSeen; got != 5 {
		t.Fatalf("LastSeen = %d, want 5", got)
	}
	// Older sighting must not regress the timestamp.
	tab.Add(Contact{Peer: p, LastSeen: 2})
	if got := tab.Bucket(idx)[0].LastSeen; got != 5 {
		t.Fatalf("LastSeen regressed to %d", got)
	}
}

// TestBucketCapacity fills bucket 0 (peers whose first bit differs from
// self's) until it rejects a peer: it holds exactly k contacts, and its
// storage holds no more than k (a full bucket is never over-allocated).
func TestBucketCapacity(t *testing.T) {
	self := ids.KeyFromUint64(0)
	for _, k := range []int{3, K, 8 * K} {
		tab := New(self, k, newPeers())
		added := 0
		for s := uint64(0); added <= k && s < 100000; s++ {
			p := ids.PeerIDFromSeed(s)
			if ids.CommonPrefixLen(self, p.Key()) != 0 {
				continue
			}
			if tab.Add(Contact{Peer: p, LastSeen: int64(s)}) {
				added++
			} else {
				break
			}
		}
		if added != k {
			t.Fatalf("k=%d: bucket 0 accepted %d contacts, want %d", k, added, k)
		}
		if got := cap(tab.buckets[0]); got != k {
			t.Errorf("k=%d: full bucket has capacity %d, want %d", k, got, k)
		}
	}
}

func TestAddReplacingStale(t *testing.T) {
	self := ids.KeyFromUint64(0)
	tab := New(self, 2, newPeers())
	var inBucket []ids.PeerID
	for s := uint64(0); len(inBucket) < 3; s++ {
		p := ids.PeerIDFromSeed(s)
		if ids.CommonPrefixLen(self, p.Key()) == 0 {
			inBucket = append(inBucket, p)
		}
	}
	tab.Add(Contact{Peer: inBucket[0], LastSeen: 1})
	tab.Add(Contact{Peer: inBucket[1], LastSeen: 10})
	// Bucket full. Plain Add of a third peer fails.
	if tab.Add(Contact{Peer: inBucket[2], LastSeen: 20}) {
		t.Fatal("Add into full bucket succeeded")
	}
	// Replacement only evicts contacts older than the horizon.
	if tab.AddReplacingStale(Contact{Peer: inBucket[2], LastSeen: 20}, 1) {
		t.Fatal("eviction horizon 1 should not evict LastSeen=1 contact (strictly older required)")
	}
	if !tab.AddReplacingStale(Contact{Peer: inBucket[2], LastSeen: 20}, 5) {
		t.Fatal("stale contact not evicted")
	}
	if tab.Contains(inBucket[0]) {
		t.Fatal("oldest contact survived eviction")
	}
	if !tab.Contains(inBucket[1]) || !tab.Contains(inBucket[2]) {
		t.Fatal("wrong contact evicted")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d after replacement, want 2", tab.Len())
	}
}

func TestNearestPeersOrdering(t *testing.T) {
	self := ids.KeyFromUint64(0)
	tab := New(self, K, newPeers())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tab.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64())})
	}
	target := ids.KeyFromUint64(999)
	got := tab.AppendNearest(nil, target, 20)
	if len(got) != 20 {
		t.Fatalf("got %d peers, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if ids.Closer(got[i].Key(), got[i-1].Key(), target) {
			t.Fatalf("peers %d and %d out of distance order", i-1, i)
		}
	}
	// Exhaustive check: nothing in the table is closer than the returned set.
	worst := got[len(got)-1].Key().Xor(target)
	for _, p := range tab.AllPeers() {
		inResult := false
		for _, g := range got {
			if g == p {
				inResult = true
				break
			}
		}
		if !inResult && p.Key().Xor(target).Cmp(worst) < 0 {
			t.Fatalf("peer %s closer than returned set but omitted", p.Short())
		}
	}
}

func TestNearestPeersEdgeCases(t *testing.T) {
	tab := New(ids.KeyFromUint64(0), K, newPeers())
	if got := tab.AppendNearest(nil, ids.KeyFromUint64(1), 5); len(got) != 0 {
		t.Fatalf("empty table returned %d peers", len(got))
	}
	tab.Add(Contact{Peer: ids.PeerIDFromSeed(1)})
	if got := tab.AppendNearest(nil, ids.KeyFromUint64(1), 0); got != nil {
		t.Fatal("n=0 should return nil")
	}
	if got := tab.AppendNearest(nil, ids.KeyFromUint64(1), 5); len(got) != 1 {
		t.Fatalf("n beyond size returned %d peers", len(got))
	}
}

func TestBucketShape(t *testing.T) {
	// With many random peers, far buckets (cpl 0, 1, 2 …) must be at
	// capacity while deep buckets stay sparse: the structural property
	// both Kademlia and the paper's crawler rely on.
	self := ids.KeyFromUint64(0)
	tab := New(self, K, newPeers())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		tab.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64())})
	}
	sizes := tab.BucketSizes()
	for cpl := 0; cpl <= 5; cpl++ {
		if sizes[cpl] != K {
			t.Errorf("bucket %d size = %d, want full (%d)", cpl, sizes[cpl], K)
		}
	}
	deep := 0
	for cpl, n := range sizes {
		if cpl > 14 {
			deep += n
		}
	}
	if deep > 2*K {
		t.Errorf("suspiciously many contacts (%d) in deep buckets", deep)
	}
}

func TestAllPeersCount(t *testing.T) {
	tab := New(ids.KeyFromUint64(0), K, newPeers())
	rng := rand.New(rand.NewSource(3))
	want := 0
	for i := 0; i < 1000; i++ {
		if tab.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64())}) {
			want++
		}
	}
	if got := len(tab.AllPeers()); got != want || got != tab.Len() {
		t.Fatalf("AllPeers = %d, Len = %d, want %d", got, tab.Len(), want)
	}
}

func TestSortByDistance(t *testing.T) {
	target := ids.KeyFromUint64(0)
	peers := []ids.PeerID{
		ids.PeerIDFromSeed(10),
		ids.PeerIDFromSeed(20),
		ids.PeerIDFromSeed(30),
	}
	sorted := SortByDistance(peers, target)
	for i := 1; i < len(sorted); i++ {
		if ids.Closer(sorted[i].Key(), sorted[i-1].Key(), target) {
			t.Fatal("SortByDistance not ordered")
		}
	}
	// Input must be untouched.
	if peers[0] != ids.PeerIDFromSeed(10) {
		t.Fatal("SortByDistance mutated input")
	}
}

func TestSortByDistanceProperty(t *testing.T) {
	f := func(seeds []uint64, tseed uint64) bool {
		target := ids.KeyFromUint64(tseed)
		peers := make([]ids.PeerID, len(seeds))
		for i, s := range seeds {
			peers[i] = ids.PeerIDFromSeed(s)
		}
		sorted := SortByDistance(peers, target)
		if len(sorted) != len(peers) {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Key().Xor(target).Cmp(sorted[i-1].Key().Xor(target)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSubBandWidth pins s, derived from the capacity alone: the largest
// value with k>>s >= K, and 0 when k < K.
func TestSubBandWidth(t *testing.T) {
	for k, want := range map[int]uint{3: 0, K: 0, 2*K - 1: 0, 2 * K: 1, 8 * K: 3, 16*K - 1: 3} {
		if got := New(ids.KeyFromUint64(0), k, newPeers()).s; got != want {
			t.Errorf("k=%d: s = %d, want %d", k, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(ids.KeyFromUint64(0), 0, newPeers())
}

func BenchmarkAdd(b *testing.B) {
	tab := New(ids.KeyFromUint64(0), K, newPeers())
	rng := rand.New(rand.NewSource(1))
	peers := make([]ids.PeerID, 4096)
	for i := range peers {
		peers[i] = ids.PeerIDFromSeed(rng.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(Contact{Peer: peers[i%len(peers)], LastSeen: int64(i)})
	}
}

// BenchmarkNearestPeers answers FindNode from a filled table into a
// reused buffer, as the node and Hydra handlers do: k = K is a node's
// table, k = 8·K the Hydra's. Targets cycle through random keys so every
// common-prefix band is exercised. It must not allocate.
func BenchmarkNearestPeers(b *testing.B) {
	for _, k := range []int{K, 8 * K} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			tab := New(ids.KeyFromUint64(0), k, newPeers())
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5000; i++ {
				tab.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64())})
			}
			targets := make([]ids.Key, 256)
			for i := range targets {
				targets[i] = ids.KeyFromUint64(rng.Uint64())
			}
			buf := make([]ids.PeerID, 0, K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tab.AppendNearest(buf[:0], targets[i%len(targets)], K)
			}
		})
	}
}

// BenchmarkSelectNearest selects the K closest of a 160-peer window (the
// 8n slice of the key ring World.nearestServers selects from) into a
// reused buffer. It must not allocate.
func BenchmarkSelectNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	peers := make([]ids.PeerID, 8*K)
	for i := range peers {
		peers[i] = ids.PeerIDFromSeed(rng.Uint64())
	}
	targets := make([]ids.Key, 256)
	for i := range targets {
		targets[i] = ids.KeyFromUint64(rng.Uint64())
	}
	buf := make([]ids.PeerID, 0, K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSelectNearest(buf[:0], peers, targets[i%len(targets)], K)
	}
}

// checkNearest compares one selection against the specification: sort
// every candidate by XOR distance and take the head.
func checkNearest(t *testing.T, label string, got, all []ids.PeerID, target ids.Key, n int) {
	t.Helper()
	want := SortByDistance(all, target)
	if n < len(want) {
		want = want[:n]
	}
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: got %d peers, want %d", label, n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d: position %d differs", label, n, i)
		}
	}
}

// checkLayout asserts the storage invariants: the bucket slice ends at
// the deepest non-empty bucket; Len is the bucket occupancy sum; every
// contact sits in the bucket its common prefix length with self
// dictates; a bucket's insertion ranks are 0…len-1; and a split
// bucket's sub-band ends rise to its length, with every contact between
// the ends of the sub-band its key bits b+1…b+s spell.
func checkLayout(t *testing.T, label string, tb *Table) {
	t.Helper()
	if n := len(tb.buckets); n > 0 && len(tb.buckets[n-1]) == 0 {
		t.Fatalf("%s: bucket slice of length %d ends in an empty bucket", label, n)
	}
	total := 0
	for _, c := range tb.buckets {
		total += len(c)
	}
	if total != tb.Len() {
		t.Fatalf("%s: Len() = %d but buckets sum to %d", label, tb.Len(), total)
	}
	for b, c := range tb.buckets {
		ranks := make([]bool, len(c))
		for _, e := range c {
			if int(e.pos) >= len(c) || ranks[e.pos] {
				t.Fatalf("%s: bucket %d has rank %d twice or out of range", label, b, e.pos)
			}
			ranks[e.pos] = true
			if cpl := ids.CommonPrefixLen(tb.self, tb.peers.Value(e.h).Key()); cpl != b {
				t.Fatalf("%s: contact with cpl %d stored in bucket %d", label, cpl, b)
			}
		}
		if !tb.split(b) {
			continue
		}
		end := tb.ends[b<<tb.s:][:1<<tb.s]
		lo := 0
		for p := range end {
			if int(end[p]) < lo {
				t.Fatalf("%s: bucket %d sub-band %d ends at %d, before its start %d", label, b, p, end[p], lo)
			}
			for _, e := range c[lo:end[p]] {
				key, got := tb.peers.Value(e.h).Key(), 0
				for j := 1; j <= int(tb.s); j++ {
					got = got<<1 | key.Bit(b+j)
				}
				if got != p {
					t.Fatalf("%s: bucket %d stores a sub-band %d contact in sub-band %d", label, b, got, p)
				}
			}
			lo = int(end[p])
		}
		if lo != len(c) {
			t.Fatalf("%s: bucket %d sub-bands end at %d, bucket holds %d", label, b, lo, len(c))
		}
	}
}

// nearTarget returns a key sharing at least cpl leading bits with self:
// the high-cplT targets a walk reaches as it converges.
func nearTarget(rng *rand.Rand, self ids.Key, cpl int) ids.Key {
	k := ids.KeyFromUint64(rng.Uint64())
	for i := 0; i < cpl; i++ {
		k = k.WithBit(i, self.Bit(i))
	}
	return k
}

// tiedPeers returns groups of peers whose keys share their leading 64
// bits within a group, so their distances to any target tie on the
// selector's prefix and only the full-key comparison orders them.
// Random SHA-256 keys never reach that fallback.
func tiedPeers(rng *rand.Rand, groups, perGroup int) []ids.PeerID {
	var out []ids.PeerID
	for g := 0; g < groups; g++ {
		base := ids.KeyFromUint64(rng.Uint64())
		for j := 0; j < perGroup; j++ {
			k := base
			rng.Read(k[8:])
			out = append(out, ids.PeerIDFromKey(k))
		}
	}
	return out
}

// TestNearestPeersMatchesBruteForce pins the bounded selection to the
// obviously-correct specification (SortByDistance) across node-sized
// (k = K) and Hydra-sized (k = 8·K) tables, random and high-cplT
// targets, windows past selectorInline, tables churned by
// AddReplacingStale, and candidates that tie on the 64-bit distance
// prefix.
func TestNearestPeersMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		k := K
		if trial%2 == 1 {
			k = 8 * K
		}
		self := ids.KeyFromUint64(rng.Uint64())
		tb := New(self, k, newPeers())
		offered := 30 + rng.Intn(1500)
		for i := 0; i < offered; i++ {
			tb.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64()), LastSeen: int64(i)})
		}
		switch trial % 6 {
		case 2, 3:
			// Churn full buckets with stale replacements.
			for i := 0; i < offered/2; i++ {
				tb.AddReplacingStale(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64()), LastSeen: int64(offered + i)}, int64(offered/2))
			}
		case 4, 5:
			// Candidates tied on the 64-bit distance prefix.
			for i, p := range tiedPeers(rng, 6, 12) {
				tb.Add(Contact{Peer: p, LastSeen: int64(offered + i)})
			}
		}
		checkLayout(t, "table", tb)
		all := tb.AllPeers()
		if len(all) != tb.Len() {
			t.Fatalf("trial %d: AllPeers = %d, Len = %d", trial, len(all), tb.Len())
		}
		targets := []ids.Key{
			ids.KeyFromUint64(rng.Uint64()),
			nearTarget(rng, self, 8+rng.Intn(16)),
			nearTarget(rng, self, 24+rng.Intn(232)),
			self,
		}
		if len(all) > 0 {
			// A stored peer's own key, and a key tied with it on 64 bits.
			p := all[rng.Intn(len(all))].Key()
			q := p
			rng.Read(q[8:])
			targets = append(targets, p, q)
		}
		for ti, target := range targets {
			for _, n := range []int{1, 3, K, 2 * K, selectorInline + 1, len(all) + 5} {
				label := fmt.Sprintf("trial %d k=%d target %d", trial, k, ti)
				checkNearest(t, label, tb.AppendNearest(nil, target, n), all, target, n)
			}
		}
	}
}

// TestBucketBandOrder pins the visit order AppendNearest relies on, on
// node-sized (k = K) and Hydra-sized (k = 8·K) tables: eachBand visits
// every stored bucket exactly once, eachSubBand visits every contact
// exactly once, and in both every contact of a group visited later is
// farther from the target than every contact of a group visited
// earlier. Peers near self populate the deep buckets; targets include
// random keys, keys sharing a long prefix with self (high cplT), and
// self.
func TestBucketBandOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		self := ids.KeyFromUint64(rng.Uint64())
		k := K
		if trial%2 == 1 {
			k = 8 * K
		}
		tb := New(self, k, newPeers())
		for i := 0; i < 2000; i++ {
			tb.Add(Contact{Peer: ids.PeerIDFromSeed(rng.Uint64())})
		}
		for i := 0; i < 300; i++ {
			tb.Add(Contact{Peer: ids.PeerIDFromKey(nearTarget(rng, self, 6+rng.Intn(30)))})
		}
		targets := []ids.Key{
			ids.KeyFromUint64(rng.Uint64()),
			nearTarget(rng, self, 4+rng.Intn(8)),
			nearTarget(rng, self, 12+rng.Intn(244)),
			self,
		}
		for ti, target := range targets {
			label := fmt.Sprintf("trial %d k=%d target %d", trial, k, ti)
			x := self.Xor(target)
			visited := make([]bool, len(tb.buckets))
			var buckets [][]entry
			tb.eachBand(&x, func(b int) bool {
				if visited[b] {
					t.Fatalf("%s: bucket %d visited twice", label, b)
				}
				visited[b] = true
				buckets = append(buckets, tb.buckets[b])
				return true
			})
			for b, ok := range visited {
				if !ok {
					t.Fatalf("%s: bucket %d never visited", label, b)
				}
			}
			checkGroupOrder(t, label+" buckets", tb, buckets, target)

			var bands [][]entry
			tb.eachSubBand(&target, func(c []entry) bool {
				bands = append(bands, c)
				return true
			})
			checkGroupOrder(t, label+" sub-bands", tb, bands, target)
			n := 0
			for _, c := range bands {
				n += len(c)
			}
			if n != tb.Len() {
				t.Fatalf("%s: sub-bands hold %d contacts, table %d", label, n, tb.Len())
			}
			if k > K && len(bands) <= len(buckets) {
				t.Fatalf("%s: %d sub-bands over %d buckets: no bucket was split", label, len(bands), len(buckets))
			}
		}
	}
}

// checkGroupOrder asserts that groups of contacts, in visit order, lie
// in increasing disjoint intervals of distance to target: every contact
// of a later group is farther than every contact of an earlier one.
func checkGroupOrder(t *testing.T, label string, tb *Table, groups [][]entry, target ids.Key) {
	t.Helper()
	var farthest ids.Key // largest distance among the groups visited so far
	seen := false
	for gi, g := range groups {
		for _, e := range g {
			if seen && tb.peers.Value(e.h).Key().Xor(target).Cmp(farthest) <= 0 {
				t.Fatalf("%s: group %d holds a contact closer than one of an earlier group", label, gi)
			}
		}
		for _, e := range g {
			if d := tb.peers.Value(e.h).Key().Xor(target); !seen || d.Cmp(farthest) > 0 {
				farthest, seen = d, true
			}
		}
	}
}

// TestSelectNearestMatchesSort pins AppendSelectNearest the same way, over
// random candidates, candidates tied on the 64-bit distance prefix,
// duplicates, and windows past selectorInline.
func TestSelectNearestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		var peers []ids.PeerID
		for i := 0; i < 1+rng.Intn(400); i++ {
			peers = append(peers, ids.PeerIDFromSeed(rng.Uint64()))
		}
		if trial%2 == 1 {
			peers = append(peers, tiedPeers(rng, 4, 20)...)
			peers = append(peers, peers[:len(peers)/4]...)
			rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		}
		targets := []ids.Key{ids.KeyFromUint64(rng.Uint64()), peers[0].Key()}
		tied := peers[len(peers)-1].Key()
		rng.Read(tied[8:])
		targets = append(targets, tied)
		for ti, target := range targets {
			for _, n := range []int{1, K, 24, selectorInline, selectorInline + 1, len(peers) + 1} {
				label := fmt.Sprintf("trial %d target %d", trial, ti)
				checkNearest(t, label, AppendSelectNearest(nil, peers, target, n), peers, target, n)
			}
		}
	}
}
