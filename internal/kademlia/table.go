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
	"tcsb/internal/intern"
)

// K is the bucket capacity used by IPFS (and the fan-out of lookups:
// GetClosestPeers returns the K closest peers).
const K = 20

// Contact is a routing-table entry as callers hand it in: a peer and the
// moment it was last seen.
type Contact struct {
	Peer ids.PeerID
	// LastSeen is a virtual-clock timestamp maintained by the caller;
	// the table itself only uses it for replacement policy.
	LastSeen int64
}

// entry is a stored contact: the peer's handle in the world's identifier
// table and its LastSeen, 16 bytes where a Contact is 40. Keys are read
// from the identifier column, which every table of the world shares.
type entry struct {
	h intern.PeerH
	// pos is the contact's rank in its bucket's insertion order; a
	// contact that evicts another takes over its rank. Split buckets
	// store their contacts grouped by sub-band, so eviction reads the
	// order from here. It fills what would otherwise be padding.
	pos      uint32
	lastSeen int64
}

// Table is a Kademlia routing table for the node that owns `self`.
// It is not safe for concurrent use; the simulator serializes access.
type Table struct {
	self  ids.Key
	k     int
	peers *intern.Table[ids.PeerID, intern.PeerH]
	// s is the sub-band width: the largest value with k>>s >= K. A
	// bucket of a table with s > 0 (the Hydra's 8·K) is split into 2^s
	// sub-bands of distance to any target (see eachSubBand); node
	// tables have s = 0.
	s uint
	// buckets is indexed by common prefix length and ends at the deepest
	// non-empty bucket: Add grows it. Random keys leave every bucket past
	// cpl ≈ log2(network size) empty, so this saves ~6 KB of empty
	// headers per table over all KeyBits+1 buckets, and FindNode answers
	// never walk them.
	buckets [][]entry
	// ends[b<<s+p] is the end of sub-band p in split bucket b, whose
	// contacts are stored grouped by sub-band; it has room for every
	// bucket that can be split. Nil when s = 0.
	ends []int32
	size int
}

// New creates a table for the given local key with bucket capacity k
// (K for a standard node) whose contacts are handles into peers, the
// world's identifier table.
func New(self ids.Key, k int, peers *intern.Table[ids.PeerID, intern.PeerH]) *Table {
	if k <= 0 {
		panic("kademlia: bucket capacity must be positive")
	}
	t := &Table{self: self, k: k, peers: peers}
	for k>>(t.s+1) >= K {
		t.s++
	}
	if t.s > 0 {
		t.ends = make([]int32, (64-t.s)<<t.s)
	}
	return t
}

// BucketIndex returns the bucket a peer with key `other` belongs to.
func (t *Table) BucketIndex(other ids.Key) int {
	return ids.CommonPrefixLen(t.self, other)
}

// bucket returns bucket idx, which is empty past the deepest stored one.
func (t *Table) bucket(idx int) []entry {
	if idx < len(t.buckets) {
		return t.buckets[idx]
	}
	return nil
}

// split reports whether bucket b is stored as 2^s sub-bands: s > 0 and
// the sub-band bits b+1…b+s lie within the leading 64 key bits.
func (t *Table) split(b int) bool { return t.s > 0 && b+1+int(t.s) <= 64 }

// subBand returns the sub-band of split bucket b that holds keys whose
// leading 64 bits are kp: the number their bits b+1…b+s spell.
func (t *Table) subBand(b int, kp uint64) int {
	return int(kp>>(63-uint(b)-t.s)) & (1<<t.s - 1)
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

// addReplace interns the peer, so it runs only at the engine's serial
// points (lane-merge replays, world build, topology refresh), like every
// other interning write.
func (t *Table) addReplace(c Contact, staleBefore int64) bool {
	key := c.Peer.Key()
	if key == t.self {
		return false // never store self
	}
	h := t.peers.Intern(c.Peer)
	idx := t.BucketIndex(key)
	b := t.bucket(idx)
	for i := range b {
		if b[i].h == h {
			b[i].lastSeen = max(b[i].lastSeen, c.LastSeen)
			return true
		}
	}
	if len(b) < t.k {
		t.insert(idx, entry{h, uint32(len(b)), c.LastSeen}, key.Prefix64())
		t.size++
		return true
	}
	if staleBefore > 0 {
		// The first contact in insertion order with the oldest LastSeen.
		oldest := 0
		for i := 1; i < len(b); i++ {
			if b[i].lastSeen < b[oldest].lastSeen || b[i].lastSeen == b[oldest].lastSeen && b[i].pos < b[oldest].pos {
				oldest = i
			}
		}
		if b[oldest].lastSeen < staleBefore {
			e := entry{h, b[oldest].pos, c.LastSeen}
			if t.split(idx) {
				t.remove(idx, oldest)
				t.insert(idx, e, key.Prefix64())
			} else {
				b[oldest] = e
			}
			return true
		}
	}
	return false
}

// insert stores e, whose key's leading 64 bits are kp, in bucket idx: at
// the end of its sub-band in a split bucket, at the end of the bucket
// otherwise.
func (t *Table) insert(idx int, e entry, kp uint64) {
	if idx >= len(t.buckets) {
		t.buckets = append(t.buckets, make([][]entry, idx+1-len(t.buckets))...)
	}
	b := t.buckets[idx]
	if len(b) == cap(b) {
		// Double toward k, never past it: append's growth would leave
		// a full K-bucket with capacity 32 and a Hydra-sized one with
		// 272.
		grown := make([]entry, len(b), min(max(2*len(b), 1), t.k))
		copy(grown, b)
		b = grown
	}
	b = b[:len(b)+1]
	at := len(b) - 1
	if t.split(idx) {
		p, end := t.subBand(idx, kp), t.ends[idx<<t.s:][:1<<t.s]
		at = int(end[p])
		copy(b[at+1:], b[at:])
		for q := p; q < len(end); q++ {
			end[q]++
		}
	}
	b[at] = e
	t.buckets[idx] = b
}

// remove deletes contact i of split bucket idx, keeping the others in
// their sub-bands.
func (t *Table) remove(idx, i int) {
	b := t.buckets[idx]
	copy(b[i:], b[i+1:])
	t.buckets[idx] = b[:len(b)-1]
	end := t.ends[idx<<t.s:][:1<<t.s]
	for q := range end {
		if int(end[q]) > i {
			end[q]--
		}
	}
}

// AppendNearest appends up to n peers from the table closest to target
// under the XOR metric, in increasing distance order, onto dst and
// returns it (append-style: the result may alias dst's storage). This
// is the local half of the FindNode RPC: a queried DHT server answers
// with the K closest contacts from its own buckets.
//
// Answering FindNode is the simulator's hottest operation (every walk
// step, crawl sweep and Hydra lookup lands here). The sub-bands cover
// disjoint intervals of XOR distance to the target and eachSubBand
// visits them closest first, so the answer is assembled sub-band by
// sub-band in a stack-resident window (see take) until one fills it. The
// result is exact and identical to sorting the whole table.
func (t *Table) AppendNearest(dst []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || t.size == 0 {
		return dst
	}
	var buf [selectorInline]slot
	s := selector{peers: t.peers.Values(), target: target, tp: target.Prefix64()}
	h, filled := window(&buf, min(n, t.size)), 0
	t.eachSubBand(&target, func(c []entry) bool {
		filled = s.take(h, filled, c)
		return filled < len(h)
	})
	return s.appendPeers(dst, h)
}

// eachSubBand calls visit with the contacts of every non-empty sub-band,
// closest distance band to target first, until visit returns false.
// Buckets come in eachBand's order, and a bucket that is not split is
// one sub-band. Sub-band p of split bucket b holds the contacts whose
// key bits b+1…b+s read p. Their distances to target share bits 0…b,
// and their bits b+1…b+s read p XOR tb, where tb is target's bits
// b+1…b+s; so the sub-bands p = q XOR tb for q = 0, 1, … come closest
// first.
func (t *Table) eachSubBand(target *ids.Key, visit func(c []entry) bool) {
	x := t.self.Xor(*target)
	tp := target.Prefix64()
	t.eachBand(&x, func(b int) bool {
		c := t.buckets[b]
		if !t.split(b) {
			return len(c) == 0 || visit(c)
		}
		tb, end := t.subBand(b, tp), t.ends[b<<t.s:][:1<<t.s]
		for q := range end {
			p := q ^ tb
			lo := int32(0)
			if p > 0 {
				lo = end[p-1]
			}
			if lo < end[p] && !visit(c[lo:end[p]]) {
				return false
			}
		}
		return true
	})
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
// distance to the target, and the candidate's index into the selector's
// peers. It holds no pointer, so filling and sifting the window pays no
// GC write barrier. The prefix decides almost every comparison; less
// falls back to the full keys on a tie.
type slot struct {
	d uint64
	i uint32
}

// selector is one nearest-peer selection: peers is the column window
// slots index into (a world's identifier column for a table, the
// candidate slice for AppendSelectNearest), and tp is target's leading
// 64 bits.
type selector struct {
	peers  []ids.PeerID
	target ids.Key
	tp     uint64
}

// slot makes the window entry for candidate i.
func (s *selector) slot(i uint32) slot { return slot{s.peers[i].Prefix64() ^ s.tp, i} }

// less orders slots by XOR distance to the target, exactly.
func (s *selector) less(a, b slot) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return s.closerOnTie(a.i, b.i)
}

// closerOnTie compares two candidates whose distances share the leading
// 64 bits. Random keys almost never get here, so it stays out of line
// to keep less inlinable.
//
//go:noinline
func (s *selector) closerOnTie(a, b uint32) bool {
	return ids.Closer(s.peers[a].Key(), s.peers[b].Key(), s.target)
}

// window slices a selection window of n slots out of the caller's
// stack array, falling back to the heap only for n > selectorInline.
func window(buf *[selectorInline]slot, n int) []slot {
	if n > selectorInline {
		return make([]slot, n)
	}
	return buf[:n]
}

// take adds the contacts c, all farther than the first filled slots of
// window h, which hold closer candidates in order, and returns the new
// fill. Contacts that fit are insertion-sorted behind them. Contacts that
// overflow fill the rest of h by bounded heap selection over c alone:
// insertion pays a shift per closer slot for every contact, which loses
// to the heap's one compare per rejection when many more contacts than
// free slots are offered.
func (s *selector) take(h []slot, filled int, c []entry) int {
	rest := h[filled:]
	if len(c) > len(rest) {
		for i := range rest {
			rest[i] = s.slot(uint32(c[i].h))
		}
		s.heapify(rest)
		for _, e := range c[len(rest):] {
			s.offer(rest, s.slot(uint32(e.h)))
		}
		s.heapSort(rest)
		return len(h)
	}
	for i := range c {
		x := s.slot(uint32(c[i].h))
		j := filled + i
		for ; j > filled && s.less(x, h[j-1]); j-- {
			h[j] = h[j-1]
		}
		h[j] = x
	}
	return filled + len(c)
}

// appendPeers appends the peers of window h onto dst.
func (s *selector) appendPeers(dst []ids.PeerID, h []slot) []ids.PeerID {
	dst = slices.Grow(dst, len(h))
	for _, x := range h {
		dst = append(dst, s.peers[x.i])
	}
	return dst
}

// offer considers candidate x for the max-heap h of the closest
// candidates so far. It inlines into the scan loops, so the common
// case, a candidate farther than the root on the prefix alone, costs
// one compare.
func (s *selector) offer(h []slot, x slot) {
	if x.d <= h[0].d {
		s.replaceRoot(h, x)
	}
}

// replaceRoot puts x in place of the root of max-heap h if x is closer.
func (s *selector) replaceRoot(h []slot, x slot) {
	if s.less(x, h[0]) {
		h[0] = x
		s.siftDown(h, 0)
	}
}

// heapify arranges h into a max-heap under less.
func (s *selector) heapify(h []slot) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.siftDown(h, i)
	}
}

// heapSort sorts a max-heap in place into increasing order. Each step
// moves the root behind the heap and refills the root with Floyd's
// bottom-up sift: the hole walks down to a leaf along the larger
// children, one compare per level, and the displaced last leaf, which
// is usually small, climbs back up only a level or two. That is about
// half the compares of a plain sift-down.
func (s *selector) heapSort(h []slot) {
	for end := len(h) - 1; end > 0; end-- {
		x := h[end]
		h[end] = h[0]
		i := 0
		for c := 1; c < end; c = 2*i + 1 {
			if c+1 < end && s.less(h[c], h[c+1]) {
				c++
			}
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if !s.less(h[p], x) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = x
	}
}

// siftDown restores the max-heap property below node i.
func (s *selector) siftDown(h []slot, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && s.less(h[c], h[c+1]) {
			c++
		}
		if !s.less(x, h[c]) {
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
// and the overflowing case of take with the whole slice as the
// contacts.
func AppendSelectNearest(dst []ids.PeerID, peers []ids.PeerID, target ids.Key, n int) []ids.PeerID {
	if n <= 0 || len(peers) == 0 {
		return dst
	}
	var buf [selectorInline]slot
	s := selector{peers: peers, target: target, tp: target.Prefix64()}
	h := window(&buf, min(n, len(peers)))
	for i := range h {
		h[i] = s.slot(uint32(i))
	}
	s.heapify(h)
	for i := len(h); i < len(peers); i++ {
		s.offer(h, s.slot(uint32(i)))
	}
	s.heapSort(h)
	return s.appendPeers(dst, h)
}
