// Package kademlia implements the k-bucket routing table used by IPFS DHT
// servers (Maymounkov & Mazières, 2002, as deployed in go-libp2p-kad-dht).
//
// A node with key a stores its outbound DHT connections in buckets indexed
// by common prefix length: bucket i holds peers whose keys share exactly i
// leading bits with a. Buckets have fixed capacity k (20 in IPFS), which
// makes the far buckets (low i, covering half / a quarter / … of the
// keyspace) fill up completely while buckets close to a stay sparse — the
// structural fact the paper's crawler exploits to enumerate a remote
// node's entire table with a bounded sweep of FindNode queries, and the
// reason out-degrees in Fig. 7 sit in a tight band.
package kademlia

import (
	"slices"

	"tcsb/internal/ids"
)

// K is the bucket capacity used by IPFS (and the fan-out of lookups:
// GetClosestPeers returns the K closest peers).
const K = 20

// Contact is a routing-table entry: a peer and the moment it was last seen.
type Contact struct {
	Peer ids.PeerID
	// LastSeen is a virtual-clock timestamp maintained by the caller;
	// the table itself only uses it for replacement policy.
	LastSeen int64
}

// Table is a Kademlia routing table for the node that owns `self`.
// It is not safe for concurrent use; the simulator serializes access.
type Table struct {
	self ids.Key
	k    int
	// buckets is indexed by common prefix length and ends at the deepest
	// non-empty bucket: Add grows it. Random keys leave every bucket past
	// cpl ≈ log2(network size) empty, so this saves ~6 KB of empty
	// headers per table over all KeyBits+1 buckets, and FindNode answers
	// never walk them.
	buckets [][]Contact
	size    int
}

// New creates a table for the given local key with bucket capacity k
// (K for a standard node).
func New(self ids.Key, k int) *Table {
	if k <= 0 {
		panic("kademlia: bucket capacity must be positive")
	}
	return &Table{self: self, k: k}
}

// BucketIndex returns the bucket a peer with key `other` belongs to.
func (t *Table) BucketIndex(other ids.Key) int {
	return ids.CommonPrefixLen(t.self, other)
}

// bucket returns bucket idx, which is empty past the deepest stored one.
func (t *Table) bucket(idx int) []Contact {
	if idx < len(t.buckets) {
		return t.buckets[idx]
	}
	return nil
}

// indexOf returns the position of p in bucket b, or -1. Comparing the
// 64-bit key prefix first settles almost every mismatch without the
// 32-byte comparison.
func indexOf(b []Contact, p *ids.PeerID) int {
	pp := p.Prefix64()
	for i := range b {
		if b[i].Peer.Prefix64() == pp && b[i].Peer == *p {
			return i
		}
	}
	return -1
}

// Add inserts or refreshes a contact. It returns true if the peer is in
// the table afterwards. A full bucket rejects new peers unless an existing
// contact is older than the new one's LastSeen minus staleAfter — Kademlia
// prefers long-lived contacts, which is also why stable (cloud) nodes
// accumulate in-degree over time (Fig. 7).
func (t *Table) Add(c Contact) bool {
	return t.addReplace(c, -1)
}

// AddReplacingStale is Add with an explicit staleness horizon: if the
// bucket is full, the oldest contact with LastSeen < staleBefore is
// evicted to make room. staleBefore <= 0 disables eviction.
func (t *Table) AddReplacingStale(c Contact, staleBefore int64) bool {
	return t.addReplace(c, staleBefore)
}

func (t *Table) addReplace(c Contact, staleBefore int64) bool {
	if c.Peer.Key() == t.self {
		return false // never store self
	}
	idx := t.BucketIndex(c.Peer.Key())
	b := t.bucket(idx)
	if i := indexOf(b, &c.Peer); i >= 0 {
		if c.LastSeen > b[i].LastSeen {
			b[i].LastSeen = c.LastSeen
		}
		return true
	}
	if len(b) < t.k {
		if idx >= len(t.buckets) {
			t.buckets = append(t.buckets, make([][]Contact, idx+1-len(t.buckets))...)
		}
		if len(b) == cap(b) {
			// Double toward k, never past it: append's growth would leave
			// a full K-bucket with capacity 32 and a Hydra-sized one with
			// 272.
			grown := make([]Contact, len(b), min(max(2*len(b), 1), t.k))
			copy(grown, b)
			b = grown
		}
		t.buckets[idx] = append(b, c)
		t.size++
		return true
	}
	if staleBefore > 0 {
		oldest := 0
		for i := 1; i < len(b); i++ {
			if b[i].LastSeen < b[oldest].LastSeen {
				oldest = i
			}
		}
		if b[oldest].LastSeen < staleBefore {
			b[oldest] = c
			return true
		}
	}
	return false
}

// AppendNearest appends up to n peers from the table closest to target
// under the XOR metric, in increasing distance order, onto dst and
// returns it (append-style: the result may alias dst's storage). This
// is the local half of the FindNode RPC: a queried DHT server answers
// with the K closest contacts from its own buckets.
//
// Answering FindNode is the simulator's hottest operation (every walk
// step, crawl sweep and Hydra lookup lands here). The buckets cover
// disjoint intervals of XOR distance to the target and eachBand visits
// them closest first, so the answer is assembled bucket by bucket in a
// stack-resident window (see take) until one fills it. The result is
// exact and identical to sorting the whole table.
func (t *Table) AppendNearest(dst []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || t.size == 0 {
		return dst
	}
	if n > t.size {
		n = t.size
	}
	var buf [selectorInline]slot
	h, filled := window(&buf, n), 0
	tp := target.Prefix64()
	x := t.self.Xor(target)
	t.eachBand(&x, func(b int) bool {
		filled = take(h, filled, t.buckets[b], tp, &target)
		return filled < len(h)
	})
	return appendPeers(dst, h)
}

// eachBand calls visit with the index of every stored bucket, closest
// distance band to the target first, until visit returns false; x is
// self XOR target and cplT its leading zero count. A contact in bucket
// b has a distance whose first b bits are x's and whose bit b is ¬x[b],
// so bucket cplT comes first; then the deeper buckets, each closer than
// every bucket deeper still exactly when x[b] = 1: those with x[b] = 1
// in increasing b, then those with x[b] = 0 in decreasing b; last the
// buckets b < cplT, whose distances lead with bit b, in decreasing b.
func (t *Table) eachBand(x *ids.Key, visit func(b int) bool) {
	cplT := x.LeadingZeros()
	nb := len(t.buckets)
	if cplT < nb && !visit(cplT) {
		return
	}
	for b := cplT + 1; b < nb; b++ {
		if bitSet(x, b) && !visit(b) {
			return
		}
	}
	for b := nb - 1; b > cplT; b-- {
		if !bitSet(x, b) && !visit(b) {
			return
		}
	}
	for b := min(cplT, nb) - 1; b >= 0; b-- {
		if !visit(b) {
			return
		}
	}
}

// bitSet reports whether bit b (most significant first) of k is 1.
func bitSet(k *ids.Key, b int) bool { return k[b>>3]&(0x80>>(b&7)) != 0 }

// selectorInline is the window size the selection keeps on the caller's
// stack. Every call site in the tree selects at most 2*dht.K (= 40)
// peers; larger requests fall back to heap-allocated windows.
const selectorInline = 64

// slot is one window entry: the leading 64 bits of the candidate's XOR
// distance to the target, and the candidate itself. The prefix decides
// almost every comparison; less falls back to the full keys on a tie.
type slot struct {
	d uint64
	p *ids.PeerID
}

// less orders slots by XOR distance to target, exactly.
func less(a, b slot, target *ids.Key) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return closerOnTie(a.p, b.p, target)
}

// closerOnTie compares two candidates whose distances share the leading
// 64 bits. Random keys almost never get here, so it stays out of line
// to keep less inlinable.
//
//go:noinline
func closerOnTie(a, b *ids.PeerID, target *ids.Key) bool {
	return ids.Closer(a.Key(), b.Key(), *target)
}

// window slices a selection window of n slots out of the caller's
// stack array, falling back to the heap only for n > selectorInline.
func window(buf *[selectorInline]slot, n int) []slot {
	if n > selectorInline {
		return make([]slot, n)
	}
	return buf[:n]
}

// take adds bucket b to window h, whose first filled slots hold closer
// candidates in order, and returns the new fill. A bucket that fits is
// insertion-sorted behind them. A bucket that overflows fills the rest
// of h by bounded heap selection over that bucket alone: insertion pays
// a shift per closer slot for every contact, which loses to the heap's
// one compare per rejection when a Hydra-sized bucket of 8·K contacts
// overflows a K-slot window.
func take(h []slot, filled int, b []Contact, tp uint64, target *ids.Key) int {
	rest := h[filled:]
	if len(b) > len(rest) {
		for i := range rest {
			rest[i] = slot{b[i].Peer.Prefix64() ^ tp, &b[i].Peer}
		}
		heapify(rest, target)
		for i := len(rest); i < len(b); i++ {
			offer(rest, b[i].Peer.Prefix64()^tp, &b[i].Peer, target)
		}
		heapSort(rest, target)
		return len(h)
	}
	for i := range b {
		c := slot{b[i].Peer.Prefix64() ^ tp, &b[i].Peer}
		j := filled + i
		for ; j > filled && less(c, h[j-1], target); j-- {
			h[j] = h[j-1]
		}
		h[j] = c
	}
	return filled + len(b)
}

// appendPeers appends the peers of window h onto dst.
func appendPeers(dst []ids.PeerID, h []slot) []ids.PeerID {
	dst = slices.Grow(dst, len(h))
	for _, c := range h {
		dst = append(dst, *c.p)
	}
	return dst
}

// offer considers candidate p, whose distance prefix is d, for the
// max-heap h of the closest candidates so far. It inlines into the scan
// loops, so the common case, a candidate farther than the root on the
// prefix alone, costs one XOR and one compare.
func offer(h []slot, d uint64, p *ids.PeerID, target *ids.Key) {
	if d <= h[0].d {
		replaceRoot(h, slot{d, p}, target)
	}
}

// replaceRoot puts c in place of the root of max-heap h if c is closer.
func replaceRoot(h []slot, c slot, target *ids.Key) {
	if less(c, h[0], target) {
		h[0] = c
		siftDown(h, 0, target)
	}
}

// heapify arranges h into a max-heap under less.
func heapify(h []slot, target *ids.Key) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, target)
	}
}

// heapSort sorts a max-heap in place into increasing order. Each step
// moves the root behind the heap and refills the root with Floyd's
// bottom-up sift: the hole walks down to a leaf along the larger
// children, one compare per level, and the displaced last leaf, which
// is usually small, climbs back up only a level or two. That is about
// half the compares of a plain sift-down.
func heapSort(h []slot, target *ids.Key) {
	for end := len(h) - 1; end > 0; end-- {
		x := h[end]
		h[end] = h[0]
		i := 0
		for c := 1; c < end; c = 2*i + 1 {
			if c+1 < end && less(h[c], h[c+1], target) {
				c++
			}
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[p], x, target) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = x
	}
}

// siftDown restores the max-heap property below node i.
func siftDown(h []slot, i int, target *ids.Key) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && less(h[c], h[c+1], target) {
			c++
		}
		if !less(x, h[c], target) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// AppendSelectNearest appends the n peers from the slice closest to
// target onto dst, in increasing distance order, via the same bounded
// selection AppendNearest uses (append-style; scratch-free for
// n <= selectorInline). It is the allocation-light replacement for
// sort-the-whole-slice call sites (topology oracles, resolver sets),
// and the overflowing-bucket case of take with the whole slice as the
// bucket.
func AppendSelectNearest(dst []ids.PeerID, peers []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || len(peers) == 0 {
		return dst
	}
	if n > len(peers) {
		n = len(peers)
	}
	var buf [selectorInline]slot
	h := window(&buf, n)
	tp := target.Prefix64()
	for i := range h {
		h[i] = slot{peers[i].Prefix64() ^ tp, &peers[i]}
	}
	heapify(h, &target)
	for i := len(h); i < len(peers); i++ {
		offer(h, peers[i].Prefix64()^tp, &peers[i], &target)
	}
	heapSort(h, &target)
	return appendPeers(dst, h)
}
