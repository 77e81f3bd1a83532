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
	"math"
	"slices"
	"sort"

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
	// non-empty bucket: Add grows it, Remove trims it. Random keys leave
	// every bucket past cpl ≈ log2(network size) empty, so this saves
	// ~6 KB of empty headers per table over all KeyBits+1 buckets, and
	// FindNode answers never walk them.
	buckets [][]Contact
	size    int
}

// New creates a table for the given local key with the standard bucket
// capacity K.
func New(self ids.Key) *Table {
	return NewWithK(self, K)
}

// NewWithK creates a table with a custom bucket capacity, used by tests
// and ablation benchmarks.
func NewWithK(self ids.Key, k int) *Table {
	if k <= 0 {
		panic("kademlia: bucket capacity must be positive")
	}
	return &Table{self: self, k: k}
}

// Self returns the local key the table is organized around.
func (t *Table) Self() ids.Key { return t.self }

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Len returns the number of contacts stored.
func (t *Table) Len() int { return t.size }

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
	for i := range b {
		if b[i].Peer == c.Peer {
			if c.LastSeen > b[i].LastSeen {
				b[i].LastSeen = c.LastSeen
			}
			return true
		}
	}
	if len(b) < t.k {
		if idx >= len(t.buckets) {
			t.buckets = append(t.buckets, make([][]Contact, idx+1-len(t.buckets))...)
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

// Remove deletes a peer from the table, returning true if it was present.
func (t *Table) Remove(p ids.PeerID) bool {
	idx := t.BucketIndex(p.Key())
	b := t.bucket(idx)
	for i := range b {
		if b[i].Peer == p {
			b[i] = b[len(b)-1]
			t.buckets[idx] = b[:len(b)-1]
			t.size--
			for last := len(t.buckets) - 1; last >= 0 && len(t.buckets[last]) == 0; last-- {
				t.buckets[last] = nil
				t.buckets = t.buckets[:last]
			}
			return true
		}
	}
	return false
}

// Contains reports whether the peer is in the table.
func (t *Table) Contains(p ids.PeerID) bool {
	for _, c := range t.bucket(t.BucketIndex(p.Key())) {
		if c.Peer == p {
			return true
		}
	}
	return false
}

// NearestPeers returns up to n peers from the table closest to target
// under the XOR metric, in increasing distance order. It is
// AppendNearest over a nil destination; hot callers (the FindNode
// handlers) use AppendNearest with a reusable buffer instead.
func (t *Table) NearestPeers(target ids.Key, n int) []ids.PeerID {
	return t.AppendNearest(nil, target, n)
}

// AppendNearest appends up to n peers from the table closest to target,
// in increasing distance order, onto dst and returns it (append-style:
// the result may alias dst's storage). This is the local half of the
// FindNode RPC: a queried DHT server answers with the K closest
// contacts from its own buckets.
//
// Answering FindNode is the simulator's hottest operation (every walk
// step, crawl sweep and Hydra lookup lands here), so it runs a bounded
// heap selection over a stack-resident window (see selector) and visits
// only the buckets that can still improve it. The result is exact and
// identical to sorting the whole table.
func (t *Table) AppendNearest(dst []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || t.size == 0 {
		return dst
	}
	if n > t.size {
		n = t.size
	}
	// Buckets are visited in increasing-distance-band order. With
	// cplT = CPL(self, target), a contact in bucket b has XOR distance
	// to the target whose leading set bit is: > cplT for b == cplT
	// (strictly closest band), exactly cplT for every b > cplT, and
	// exactly b for b < cplT (farther the smaller b is). So when bucket
	// cplT alone fills the window nothing else can enter it, and once
	// the window is full after the cplT band every remaining bucket
	// below it is provably farther and gets skipped wholesale.
	var buf [selectorInline]slot
	s := newSelector(&buf, n, target)
	cplT := ids.CommonPrefixLen(t.self, target)
	s.offerBucket(t.bucket(cplT))
	if !s.full() {
		for b := cplT + 1; b < len(t.buckets); b++ {
			s.offerBucket(t.buckets[b])
		}
		for b := min(cplT, len(t.buckets)) - 1; b >= 0 && !s.full(); b-- {
			s.offerBucket(t.buckets[b])
		}
	}
	return s.appendSorted(dst)
}

// selectorInline is the window size the bounded selection keeps on the
// caller's stack. Every call site in the tree selects at most 2*dht.K
// (= 40) peers; larger requests fall back to heap-allocated windows.
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

// selector keeps the n closest candidates offered so far. Until the
// window fills it is an unsorted array; from then on it is a max-heap
// under less, so rejecting a candidate is one prefix compare against
// the root and accepting one is a sift-down. The window is sliced from
// a caller-owned array, and the selector holds only that slice — never
// the array itself — so it is not self-referential and escape analysis
// keeps the whole window on the caller's stack.
type selector struct {
	h    []slot
	size int
	// worst is the root's distance prefix once the window is full, and
	// the largest prefix while it fills, so that offer's one compare
	// admits every candidate during the fill and rejects the provably
	// farther ones after it.
	worst  uint64
	tp     uint64
	target ids.Key
}

// newSelector slices a window of capacity n out of buf, falling back to
// the heap only for n > selectorInline.
func newSelector(buf *[selectorInline]slot, n int, target ids.Key) selector {
	h := buf[:0]
	if n > selectorInline {
		h = make([]slot, n)
	}
	return selector{h: h[:n], worst: math.MaxUint64, tp: target.Prefix64(), target: target}
}

func (s *selector) full() bool { return s.size == len(s.h) }

// push adds c to a filling window, heapifying it once it is full, or
// replaces the root of a full window if c is closer.
func (s *selector) push(d uint64, p *ids.PeerID) {
	c := slot{d, p}
	switch {
	case s.size < len(s.h):
		s.h[s.size] = c
		s.size++
		if !s.full() {
			return
		}
		for i := len(s.h)/2 - 1; i >= 0; i-- {
			siftDown(s.h, i, &s.target)
		}
	case less(c, s.h[0], &s.target):
		s.h[0] = c
		siftDown(s.h, 0, &s.target)
	default:
		return
	}
	s.worst = s.h[0].d
}

// offer considers candidate p, whose distance prefix (p's key XOR the
// target, leading 64 bits) is d. It inlines into the scan loops, so the
// common case, a candidate farther than the window's worst on the
// prefix alone, costs one XOR and one compare.
func (s *selector) offer(d uint64, p *ids.PeerID) {
	if d <= s.worst {
		s.push(d, p)
	}
}

func (s *selector) offerBucket(b []Contact) {
	for i := range b {
		s.offer(b[i].Peer.Prefix64()^s.tp, &b[i].Peer)
	}
}

// appendSorted sorts the window closest first and appends its peers
// onto dst. Both callers clamp n to the number of candidates and offer
// all of them, so the window is full, i.e. a heap.
func (s *selector) appendSorted(dst []ids.PeerID) []ids.PeerID {
	heapSort(s.h, &s.target)
	dst = slices.Grow(dst, len(s.h))
	for _, c := range s.h {
		dst = append(dst, *c.p)
	}
	return dst
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

// SelectNearest returns the n peers from the slice closest to target in
// increasing distance order, via the same bounded selection NearestPeers
// uses. It is the allocation-light replacement for sort-the-whole-slice
// call sites (topology oracles, resolver sets).
func SelectNearest(peers []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	return AppendSelectNearest(nil, peers, target, n)
}

// AppendSelectNearest is SelectNearest appending onto dst (append-style;
// scratch-free for n <= selectorInline, like AppendNearest).
func AppendSelectNearest(dst []ids.PeerID, peers []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || len(peers) == 0 {
		return dst
	}
	if n > len(peers) {
		n = len(peers)
	}
	var buf [selectorInline]slot
	s := newSelector(&buf, n, target)
	for i := range peers {
		s.offer(peers[i].Prefix64()^s.tp, &peers[i])
	}
	return s.appendSorted(dst)
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
// common prefix length. The crawler uses this shape (full far buckets,
// sparse near buckets) to know when its sweep is complete.
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
// and returns a new slice. It is the shared helper behind lookup
// convergence checks in the DHT walk and the crawler.
func SortByDistance(peers []ids.PeerID, target ids.Key) []ids.PeerID {
	out := append([]ids.PeerID(nil), peers...)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key().Xor(target).Cmp(out[j].Key().Xor(target)) < 0
	})
	return out
}
