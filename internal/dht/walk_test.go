package dht

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

func pi(seed uint64) netsim.PeerInfo {
	return netsim.PeerInfo{ID: ids.PeerIDFromSeed(seed)}
}

func freshScratch(target ids.Key, seeds ...uint64) *walkScratch {
	sc := new(walkScratch)
	sc.reset(target)
	for _, s := range seeds {
		sc.add(ids.PeerIDFromSeed(s))
	}
	return sc
}

// ordered returns the candidates in the scratch's distance order.
func ordered(sc *walkScratch) []ids.PeerID {
	out := make([]ids.PeerID, len(sc.order))
	for j, c := range sc.order {
		out[j] = sc.peers[c.i]
	}
	return out
}

// checkCandidates asserts the candidate-set invariants: peers, flags and
// order agree in length, order lists every arrival index once, in
// strictly increasing full XOR distance, and each entry carries its
// candidate's distance prefix.
func checkCandidates(t *testing.T, sc *walkScratch) {
	t.Helper()
	if len(sc.order) != len(sc.peers) || len(sc.flags) != len(sc.peers) {
		t.Fatalf("order/peers/flags lengths %d/%d/%d", len(sc.order), len(sc.peers), len(sc.flags))
	}
	listed := make([]bool, len(sc.peers))
	for j, c := range sc.order {
		if listed[c.i] {
			t.Fatalf("candidate %d listed twice in order", c.i)
		}
		listed[c.i] = true
		p := sc.peers[c.i]
		if want := p.Prefix64() ^ sc.target.Prefix64(); c.d != want {
			t.Fatalf("order[%d].d = %x, want %x", j, c.d, want)
		}
		if j > 0 && !ids.Closer(sc.peers[sc.order[j-1].i].Key(), p.Key(), sc.target) {
			t.Fatalf("order[%d] is not strictly farther than order[%d]", j, j-1)
		}
	}
}

// tiedPeers returns n peers whose keys share their leading 64 bits, so
// their distances to any target tie on the inline prefix and only the
// full-key comparison orders them. Random SHA-256 keys never tie.
func tiedPeers(rng *rand.Rand, n int) []ids.PeerID {
	base := ids.KeyFromUint64(rng.Uint64())
	out := make([]ids.PeerID, n)
	for i := range out {
		k := base
		rng.Read(k[8:])
		out[i] = ids.PeerIDFromKey(k)
	}
	return out
}

func TestCandidateSetOrdering(t *testing.T) {
	target := ids.KeyFromUint64(0)
	sc := freshScratch(target)
	for s := uint64(1); s <= 50; s++ {
		sc.add(ids.PeerIDFromSeed(s))
	}
	if len(sc.peers) != 50 {
		t.Fatalf("%d candidates, want 50", len(sc.peers))
	}
	checkCandidates(t, sc)
}

func TestCandidateSetDeduplicates(t *testing.T) {
	target := ids.KeyFromUint64(0)
	sc := freshScratch(target, 1, 1)
	if len(sc.order) != 1 || len(sc.peers) != 1 {
		t.Fatalf("duplicate admitted: %d entries", len(sc.order))
	}
	// Re-offering known candidates, in either order, admits nothing.
	for s := uint64(1); s <= 30; s++ {
		sc.add(ids.PeerIDFromSeed(s))
	}
	for s := uint64(30); s >= 1; s-- {
		sc.add(ids.PeerIDFromSeed(s))
	}
	if len(sc.order) != 30 {
		t.Fatalf("%d candidates after re-offering 30, want 30", len(sc.order))
	}
	sc.add(ids.PeerID{}) // zero ID must be ignored
	if len(sc.order) != 30 {
		t.Fatal("zero peer admitted")
	}
	checkCandidates(t, sc)
}

// TestCandidateSetPrefixTies feeds candidates whose distances tie on the
// 64-bit prefix: the full-key fallback orders them, repeats are still
// rejected, and untied candidates interleave correctly. Targets include
// one tied with the group itself, putting the group at prefix distance 0.
func TestCandidateSetPrefixTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tied := tiedPeers(rng, 24)
	tiedTarget := tied[0].Key()
	rng.Read(tiedTarget[8:])
	for ti, target := range []ids.Key{ids.KeyFromUint64(rng.Uint64()), tied[0].Key(), tiedTarget} {
		sc := freshScratch(target)
		for _, p := range tied {
			sc.add(p)
		}
		for s := uint64(1); s <= 20; s++ {
			sc.add(ids.PeerIDFromSeed(s))
		}
		for i := len(tied) - 1; i >= 0; i-- {
			sc.add(tied[i])
		}
		if want := len(tied) + 20; len(sc.order) != want {
			t.Fatalf("target %d: %d candidates, want %d", ti, len(sc.order), want)
		}
		checkCandidates(t, sc)
	}
}

// TestCandidateSetMatchesReference drives random candidate streams —
// repeats, the zero ID, prefix-tied groups, targets equal to a
// candidate — through one reused scratch and compares the distance
// order with the specification: sort every non-zero candidate by full
// XOR distance, then drop repeats.
func TestCandidateSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := new(walkScratch)
	for trial := 0; trial < 200; trial++ {
		var pool []ids.PeerID
		for i := 1 + rng.Intn(60); i > 0; i-- {
			pool = append(pool, ids.PeerIDFromSeed(rng.Uint64()))
		}
		pool = append(pool, tiedPeers(rng, rng.Intn(8))...)
		pool = append(pool, ids.PeerID{})
		target := ids.KeyFromUint64(rng.Uint64())
		if trial%4 == 1 {
			target = pool[rng.Intn(len(pool))].Key()
		}
		stream := make([]ids.PeerID, 3*len(pool))
		for i := range stream {
			stream[i] = pool[rng.Intn(len(pool))]
		}

		sc.reset(target)
		for _, p := range stream {
			sc.add(p)
		}

		var want []ids.PeerID
		for _, p := range stream {
			if !p.IsZero() {
				want = append(want, p)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].Key().Xor(target).Cmp(want[j].Key().Xor(target)) < 0
		})
		want = slices.Compact(want)
		if got := ordered(sc); !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d candidates in order, reference has %d (or the order differs)", trial, len(got), len(want))
		}
		checkCandidates(t, sc)
	}
}

func TestScratchResetKeepsNothing(t *testing.T) {
	sc := freshScratch(ids.KeyFromUint64(0), 1, 2, 3)
	sc.flags[0] |= flagQueried
	sc.addProvider(netsim.ProviderRecord{Provider: pi(9)})
	target := ids.KeyFromUint64(1)
	sc.reset(target)
	if len(sc.peers) != 0 || len(sc.order) != 0 || len(sc.flags) != 0 || len(sc.provs) != 0 {
		t.Fatalf("reset left state behind: %+v", sc)
	}
	if sc.target != target || sc.tp != target.Prefix64() {
		t.Fatal("reset did not retarget the scratch")
	}
	// Re-adding after reset starts flags fresh.
	sc.add(ids.PeerIDFromSeed(1))
	if sc.flags[0] != 0 {
		t.Fatal("stale queried flag survived reset")
	}
	checkCandidates(t, sc)
}

func TestNextBatchRespectsAlphaAndHorizon(t *testing.T) {
	target := ids.KeyFromUint64(0)
	sc := freshScratch(target)
	for s := uint64(1); s <= 40; s++ {
		sc.add(ids.PeerIDFromSeed(s))
	}
	// Nothing is queried yet: the batch is the alpha closest candidates.
	batch := sc.nextBatch(3, K)
	if len(batch) != 3 {
		t.Fatalf("batch size %d, want alpha=3", len(batch))
	}
	for j, i := range batch {
		if i != sc.order[j].i {
			t.Fatalf("batch[%d] = candidate %d, want the closest-but-%d", j, i, j)
		}
	}
	// With all but the K-th closest queried, the batch is that one alone:
	// unqueried candidates past the horizon never join it.
	for j := 0; j < K-1; j++ {
		sc.flags[sc.order[j].i] |= flagQueried
	}
	if got := sc.nextBatch(3, K); len(got) != 1 || got[0] != sc.order[K-1].i {
		t.Fatalf("batch %v, want only the K-th closest candidate %d", got, sc.order[K-1].i)
	}
	// Marking the whole horizon queried converges the walk.
	sc.flags[sc.order[K-1].i] |= flagQueried
	if got := sc.nextBatch(3, K); len(got) != 0 {
		t.Fatalf("converged set still yields batch of %d", len(got))
	}
}

func TestNextBatchSkipsFailed(t *testing.T) {
	target := ids.KeyFromUint64(0)
	sc := freshScratch(target)
	for s := uint64(1); s <= 30; s++ {
		sc.add(ids.PeerIDFromSeed(s))
	}
	// Fail the closest 5 and query the next K-1: failed candidates do not
	// count toward the horizon, so it slides to the (5+K)-th closest,
	// which is the one candidate left to batch.
	const failed = 5
	for j := 0; j < failed; j++ {
		sc.flags[sc.order[j].i] |= flagQueried | flagFailed
	}
	for j := failed; j < failed+K-1; j++ {
		sc.flags[sc.order[j].i] |= flagQueried
	}
	if got, want := sc.nextBatch(3, K), sc.order[failed+K-1].i; len(got) != 1 || got[0] != want {
		t.Fatalf("batch %v, want only candidate %d", got, want)
	}
	// closest skips failed candidates too.
	got := sc.closest(K)
	if len(got) != K {
		t.Fatalf("closest(K) returned %d candidates", len(got))
	}
	for j, i := range got {
		if i != sc.order[failed+j].i {
			t.Fatalf("closest[%d] = candidate %d, want %d", j, i, sc.order[failed+j].i)
		}
	}
}

func TestClosestBounds(t *testing.T) {
	target := ids.KeyFromUint64(0)
	sc := freshScratch(target)
	if got := sc.closest(5); len(got) != 0 {
		t.Fatal("closest on empty set")
	}
	sc.add(ids.PeerIDFromSeed(1))
	sc.add(ids.PeerIDFromSeed(2))
	if got := sc.closest(5); len(got) != 2 {
		t.Fatalf("closest(5) over 2 candidates = %d", len(got))
	}
}

// TestProviderDedupKeepsFirst: of two records from one provider with
// different Received times the first one seen is kept, and the records
// stay in provider-key order whatever order they arrive in.
func TestProviderDedupKeepsFirst(t *testing.T) {
	sc := freshScratch(ids.KeyFromUint64(0))
	const n = 12
	for s := uint64(1); s <= n; s++ {
		sc.addProvider(netsim.ProviderRecord{Provider: pi(s), Received: netsim.Time(s)})
	}
	for s := uint64(n); s >= 1; s-- {
		sc.addProvider(netsim.ProviderRecord{Provider: pi(s), Received: netsim.Time(100 + s)})
	}
	if len(sc.provs) != n {
		t.Fatalf("%d records kept, want one per provider (%d)", len(sc.provs), n)
	}
	for i, r := range sc.provs {
		if r.Received >= 100 {
			t.Fatalf("provider %s kept its later record", r.Provider.ID.String())
		}
		if i > 0 && sc.provs[i-1].Provider.ID.Key().Cmp(r.Provider.ID.Key()) >= 0 {
			t.Fatalf("records out of provider-key order at %d", i)
		}
	}
}

// recordServer is a DHT server stub that answers GetProviders with fixed
// records and no contacts.
type recordServer struct{ recs []netsim.ProviderRecord }

func (recordServer) HandleFindNode(_ *netsim.Effects, _ ids.PeerID, _ ids.Key, closer []ids.PeerID) []ids.PeerID {
	return closer
}

func (s recordServer) HandleGetProviders(_ *netsim.Effects, _ ids.PeerID, _ ids.CID, recs []netsim.ProviderRecord, closer []ids.PeerID) ([]netsim.ProviderRecord, []ids.PeerID) {
	return append(recs, s.recs...), closer
}

func (recordServer) HandleAddProvider(*netsim.Effects, ids.PeerID, ids.CID, netsim.ProviderRecord) {}

func (recordServer) HandleBitswapWant(*netsim.Effects, ids.PeerID, ids.CID) bool { return false }

// TestFindProvidersKeepsFirstRecord runs the provider dedup through a
// walk: both resolvers hold a record of provider p, and the result keeps
// the one from the resolver queried first (the closer to the CID).
func TestFindProvidersKeepsFirstRecord(t *testing.T) {
	net := netsim.New()
	c := ids.CIDFromSeed(7)
	first, second := pi(20), pi(21)
	if ids.Closer(second.ID.Key(), first.ID.Key(), c.Key()) {
		first, second = second, first
	}
	p, q := pi(30), pi(31)
	net.Attach(first.ID, recordServer{[]netsim.ProviderRecord{{Provider: p, Received: 5}}}, netsim.HostConfig{Reachable: true})
	net.Attach(second.ID, recordServer{[]netsim.ProviderRecord{{Provider: q, Received: 9}, {Provider: p, Received: 9}}}, netsim.HostConfig{Reachable: true})
	w := NewWalker(net, pi(1).ID)
	recs := w.FindProviders(nil, []netsim.PeerInfo{second, first}, c, FindProvidersOpts{Exhaustive: true})
	if got := net.TotalMessages(); got != 2 {
		t.Fatalf("%d RPCs delivered, want one to each resolver", got)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want one each for p and q", len(recs))
	}
	if recs[0].Provider.ID.Key().Cmp(recs[1].Provider.ID.Key()) >= 0 {
		t.Fatal("records out of provider-key order")
	}
	for _, r := range recs {
		if r.Provider.ID == p.ID && r.Received != 5 {
			t.Fatalf("p's record has Received %d, want 5 from the first resolver", r.Received)
		}
	}
}

func TestFindProvidersOptsDefaults(t *testing.T) {
	// Max <= 0 defaults to K; exercised through a degenerate walker with
	// no network interaction (empty seeds).
	net := netsim.New()
	w := NewWalker(net, ids.PeerIDFromSeed(1))
	recs := w.FindProviders(nil, nil, ids.CIDFromSeed(1), FindProvidersOpts{})
	if len(recs) != 0 || net.TotalMessages() != 0 {
		t.Fatalf("walk over empty seeds did something: %v, %d RPCs", recs, net.TotalMessages())
	}
}

func TestWalkWithFailedSeedsEndsEmpty(t *testing.T) {
	// A network with only unreachable seeds: every query fails, and the
	// walks terminate with nothing found and no RPC delivered.
	net := netsim.New()
	w := NewWalker(net, ids.PeerIDFromSeed(1))
	seeds := []netsim.PeerInfo{pi(10), pi(11), pi(12)}
	if got := w.GetClosestPeers(nil, seeds, ids.KeyFromUint64(5)); len(got) != 0 {
		t.Fatalf("GetClosestPeers over failed seeds returned %d peers", len(got))
	}
	if got := w.FindProviders(nil, seeds, ids.CIDFromSeed(2), FindProvidersOpts{Exhaustive: true}); len(got) != 0 {
		t.Fatalf("FindProviders over failed seeds returned %d records", len(got))
	}
	if n := net.TotalMessages(); n != 0 {
		t.Fatalf("%d RPCs delivered to unreachable seeds", n)
	}
}

func TestScratchReuseAcrossWalks(t *testing.T) {
	// Serial-mode walks on one walker share its scratch; back-to-back
	// walks must not leak candidate or provider state into each other.
	// Both seeds answer, so a candidate leaked from the first walk would
	// be queried by the second.
	net := netsim.New()
	for _, s := range []uint64{10, 11} {
		net.Attach(pi(s).ID, recordServer{}, netsim.HostConfig{Reachable: true})
	}
	w := NewWalker(net, ids.PeerIDFromSeed(1))
	w.GetClosestPeers(nil, []netsim.PeerInfo{pi(10)}, ids.KeyFromUint64(5))
	before := net.TotalMessages()
	recs := w.FindProviders(nil, []netsim.PeerInfo{pi(11)}, ids.CIDFromSeed(2), FindProvidersOpts{})
	if len(recs) != 0 {
		t.Fatalf("provider records leaked across walks: %v", recs)
	}
	if got := net.TotalMessages() - before; got != 1 {
		t.Fatalf("second walk sent %d RPCs, want one to its own single seed", got)
	}
}

// BenchmarkWalkCandidates replays a walk's bookkeeping without the
// network: each op draws a pooled scratch, feeds it 20-peer answers
// drawn from a 200-peer neighbourhood (so most contacts are repeats, as
// in a converging walk), and marks every batch queried until the set
// converges. It must not allocate.
func BenchmarkWalkCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	target := ids.KeyFromUint64(rng.Uint64())
	hood := make([]ids.PeerID, 200)
	for i := range hood {
		hood[i] = ids.PeerIDFromSeed(rng.Uint64())
	}
	answers := make([][]ids.PeerID, 64)
	for i := range answers {
		answers[i] = make([]ids.PeerID, K)
		for j := range answers[i] {
			answers[i][j] = hood[rng.Intn(len(hood))]
		}
	}
	self := ids.PeerIDFromSeed(0)
	walk := func(op int) {
		sc := getScratch()
		sc.reset(target)
		sc.addAnswer(answers[op%len(answers)], self)
		next := op
		for batch := sc.nextBatch(Alpha, K); len(batch) > 0; batch = sc.nextBatch(Alpha, K) {
			for _, i := range batch {
				sc.flags[i] |= flagQueried
				next++
				sc.addAnswer(answers[next%len(answers)], self)
			}
		}
		sc.release()
	}
	walk(0) // grow the pooled scratch to its steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk(i)
	}
}
