// Package crawler reimplements the DHT crawler of Henningsen et al. as
// used by the paper (Section 3, "Topology graph"): it enumerates all
// outgoing DHT connections of every reachable DHT server by sweeping each
// node's k-buckets with crafted FindNode messages, producing a snapshot of
// the DHT graph.
//
// A crawl starts from seed peers, breadth-first: every newly discovered
// peer is dialled and, if connectable, swept. Peers that cannot be dialled
// (offline bucket ghosts, or — impossible for servers but kept for
// robustness — NAT-ed peers) are recorded as discovered-but-uncrawlable
// leaves, matching the paper's distinction between the ~25.7k discovered
// and ~18k crawlable peers per crawl.
package crawler

import (
	"fmt"
	"net/netip"
	"sync"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
)

// The crawl's fixed settings: the sweep's stop rule, and the dial pool
// and timeouts of the duration model.
const (
	// emptySweeps consecutive empty bucket sweeps end the per-peer
	// enumeration.
	emptySweeps = 3
	// maxCPL bounds the bucket sweep depth: beyond ~log2(n) buckets are
	// empty anyway, and the stop rule usually fires much earlier.
	maxCPL = 64
	// dialWorkers is the modelled dial concurrency of the duration
	// estimate, roughly the real tool's.
	dialWorkers = 1000
	// connTimeoutSec is the dial timeout every unresponsive peer costs
	// in the duration model: the paper's 3-minute timeout.
	connTimeoutSec = 180
	// rpcTimeSec is the modelled cost of one successful RPC.
	rpcTimeSec = 0.05
)

// Config controls one crawl.
type Config struct {
	// ID tags the snapshot (crawl sequence number).
	ID int
	// CrawlerID is the overlay identity the crawler dials with.
	CrawlerID ids.PeerID
	// Parallel is the number of OS-level worker goroutines actually used
	// to sweep peers (values below 2 sweep on the calling goroutine).
	// It changes only wall-clock: the crawl proceeds in waves whose
	// results merge in discovery order, so the snapshot is
	// byte-identical for every Parallel value.
	Parallel int
}

// Observation is what one crawl learned about one peer.
type Observation struct {
	Peer ids.PeerID
	// Addrs are the multiaddrs other peers advertised for this peer.
	Addrs []maddr.Addr
	// Crawlable reports whether the peer answered the bucket sweep.
	Crawlable bool
	// DialError, when not crawlable, records why ("offline", …).
	DialError string
	// Contacts is the peer's enumerated outgoing DHT connections (only
	// for crawlable peers), as positions in Snapshot.Peers: every contact
	// is discovered, so Peers[c].Peer is its ID. Retained crawl series
	// dominate peak memory at scale, and a position is 4 bytes where the
	// ID was 32.
	Contacts []int32
	// SweepRPCs counts FindNode RPCs spent on this peer.
	SweepRPCs int
}

// IPs returns the distinct non-local, non-circuit IPs the peer advertised.
func (o *Observation) IPs() []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, a := range o.Addrs {
		if a.Circuit || !a.IP.IsValid() || a.IsLocal() {
			continue
		}
		if !seen[a.IP] {
			seen[a.IP] = true
			out = append(out, a.IP)
		}
	}
	return out
}

// Snapshot is the result of one crawl: the DHT graph at a point in time.
type Snapshot struct {
	ID    int
	Start netsim.Time
	// Peers holds one observation per discovered peer, in discovery
	// order.
	Peers []Observation
	// RPCs is the total FindNode count spent.
	RPCs int
	// ModeledDurationSec estimates the wall-clock duration of this crawl
	// under the modelled dial pool and timeouts (the paper: ~5 minutes,
	// the latter half spent waiting on unresponsive peers).
	ModeledDurationSec float64
	// ModeledWaitSec is the part of the duration spent on dial timeouts.
	ModeledWaitSec float64
	// LinkLatencyUS is the cumulative virtual link latency (µs) the
	// netsim impairment model charged across every sweep wave. Zero
	// under the identity profile; orthogonal to the ModeledDuration
	// worker-pool estimate, which predates the link model.
	LinkLatencyUS int64
}

// Discovered returns the number of peers seen (crawlable or not).
func (s *Snapshot) Discovered() int { return len(s.Peers) }

// Crawlable returns the number of peers that answered the sweep.
func (s *Snapshot) Crawlable() int {
	n := 0
	for i := range s.Peers {
		if s.Peers[i].Crawlable {
			n++
		}
	}
	return n
}

// sweepResult is what one parallel sweep learned about one peer before
// the deterministic merge. Contacts carry IDs only: the merge resolves
// addresses through the registry (netsim.Info), whose snapshots are
// stable for the duration of a crawl — identical to what the queried
// peer would have answered, without materializing a PeerInfo per
// response entry.
type sweepResult struct {
	contacts  []ids.PeerID
	rpcs      int
	elapsedUS int64
	err       error
}

// Crawl performs one full crawl of the network reachable from seeds.
//
// The crawl proceeds breadth-first in waves: every peer in the current
// frontier is swept (concurrently when cfg.Parallel > 1, each sweep on
// its own netsim Effects lane), then the wave's results are merged in
// frontier order. Discovery order — and with it the entire snapshot —
// is therefore a function of the graph alone, not of worker scheduling.
func Crawl(net *netsim.Network, cfg Config, seeds []netsim.PeerInfo) *Snapshot {
	snap := &Snapshot{ID: cfg.ID, Start: net.Clock.Now()}

	// index maps a discovered peer to its position in snap.Peers, and
	// the queue holds positions. enqueue returns the peer's position; it
	// appends to snap.Peers, which may move the array: no *Observation
	// is held across a call.
	index := make(map[ids.PeerID]int32)
	var queue []int32
	enqueue := func(pi netsim.PeerInfo) int32 {
		if i, ok := index[pi.ID]; ok {
			// Merge newly learned addresses.
			o := &snap.Peers[i]
			o.Addrs = mergeAddrs(o.Addrs, pi.Addrs)
			return i
		}
		// The registry's address snapshots are immutable with exact
		// capacity (see netsim.Addrs), so the observation aliases them
		// instead of copying; mergeAddrs appends reallocate.
		i := int32(len(snap.Peers))
		index[pi.ID] = i
		snap.Peers = append(snap.Peers, Observation{Peer: pi.ID, Addrs: pi.Addrs})
		queue = append(queue, i)
		return i
	}
	for _, s := range seeds {
		if !s.ID.IsZero() && s.ID != cfg.CrawlerID {
			enqueue(s)
		}
	}

	unresponsive := 0
	for len(queue) > 0 {
		frontier := queue
		queue = nil
		results := make([]sweepResult, len(frontier))
		net.Fanout(cfg.Parallel, len(frontier), func(i int, env *netsim.Effects) {
			results[i] = sweep(net, env, cfg.CrawlerID, snap.Peers[frontier[i]].Peer)
		})

		for i, pos := range frontier {
			r := results[i]
			o := &snap.Peers[pos]
			o.SweepRPCs = r.rpcs
			snap.RPCs += r.rpcs
			snap.LinkLatencyUS += r.elapsedUS
			if r.err != nil {
				o.Crawlable = false
				o.DialError = r.err.Error()
				unresponsive++
				continue
			}
			o.Crawlable = true
			contacts := make([]int32, len(r.contacts))
			for j, id := range r.contacts {
				contacts[j] = enqueue(net.Info(id))
			}
			snap.Peers[pos].Contacts = contacts
		}
	}

	// Duration model: successful RPCs stream through the worker pool;
	// every unresponsive peer pins a worker for the full dial timeout.
	snap.ModeledWaitSec = float64(unresponsive) * connTimeoutSec / dialWorkers
	snap.ModeledDurationSec = float64(snap.RPCs)*rpcTimeSec/dialWorkers + snap.ModeledWaitSec
	return snap
}

// sweep enumerates one peer's buckets via FindNode messages crafted to
// target every common-prefix length, stopping after emptySweeps
// consecutive sweeps that reveal nothing new. It only reads shared state
// (plus lane-deferred handler effects), collecting learned PeerInfos for
// the caller to merge.
func sweep(net *netsim.Network, env *netsim.Effects, crawlerID, p ids.PeerID) sweepResult {
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sweepScratchPool.Put(sc)
	clear(sc.seen)
	var res sweepResult
	mark := net.LatencyMark(env)
	emptyRun := 0
	for cpl := 0; cpl < maxCPL && emptyRun < emptySweeps; cpl++ {
		// A target differing from p's key in exactly bit `cpl` lands in
		// bucket cpl of p's table.
		target := p.Key().FlipBit(cpl)
		res.rpcs++
		peers, err := net.FindNode(env, sc.closer[:0], crawlerID, p, target)
		sc.closer = peers[:0]
		if err != nil {
			return sweepResult{rpcs: res.rpcs, elapsedUS: net.LatencyMark(env) - mark,
				err: fmt.Errorf("dial %s: %w", p.Short(), err)}
		}
		newPeers := 0
		for _, pi := range peers {
			if pi == p || pi == crawlerID || sc.seen[pi] {
				continue
			}
			sc.seen[pi] = true
			res.contacts = append(res.contacts, pi)
			newPeers++
		}
		if newPeers == 0 {
			emptyRun++
		} else {
			emptyRun = 0
		}
	}
	res.elapsedUS = net.LatencyMark(env) - mark
	return res
}

// sweepScratch is the reusable sweep state: the FindNode response
// buffer and the per-peer dedup set, cleared per sweep. Scratch is
// pooled by goroutine concurrency rather than pinned per Effects lane —
// a crawl wave fans out over one lane per frontier peer, and a
// network-sized dedup set retained on each lane dominated live memory
// at scale.10x. Scratch never reaches the output, so pool assignment is
// invisible to the determinism contract.
type sweepScratch struct {
	seen   map[ids.PeerID]bool
	closer []ids.PeerID
}

var sweepScratchPool = sync.Pool{
	New: func() any { return &sweepScratch{seen: make(map[ids.PeerID]bool)} },
}

// mergeAddrs unions src into dst. Addresses are comparable values, and
// in the overwhelmingly common case (a peer re-discovered with unchanged
// addresses — the registry snapshots are stable during a crawl) the two
// lists are identical, which the prefix scan detects without building
// the set at all.
func mergeAddrs(dst, src []maddr.Addr) []maddr.Addr {
	if len(dst) == len(src) {
		same := true
		for i := range dst {
			if dst[i] != src[i] {
				same = false
				break
			}
		}
		if same {
			return dst
		}
	}
	have := make(map[maddr.Addr]bool, len(dst))
	for _, a := range dst {
		have[a] = true
	}
	for _, a := range src {
		if !have[a] {
			have[a] = true
			dst = append(dst, a)
		}
	}
	return dst
}

// Series is an ordered collection of snapshots — the 101-crawl dataset of
// the paper, ready for the counting methodologies.
type Series struct {
	Snapshots []*Snapshot
}

// Add appends a snapshot.
func (s *Series) Add(snap *Snapshot) { s.Snapshots = append(s.Snapshots, snap) }

// Len returns the number of crawls.
func (s *Series) Len() int { return len(s.Snapshots) }

// MeanDiscovered returns the average number of peers discovered per crawl
// (the paper's 25,771.6).
func (s *Series) MeanDiscovered() float64 {
	if len(s.Snapshots) == 0 {
		return 0
	}
	total := 0
	for _, sn := range s.Snapshots {
		total += sn.Discovered()
	}
	return float64(total) / float64(len(s.Snapshots))
}

// MeanCrawlable returns the average number of crawlable peers per crawl
// (the paper's 17,991.4).
func (s *Series) MeanCrawlable() float64 {
	if len(s.Snapshots) == 0 {
		return 0
	}
	total := 0
	for _, sn := range s.Snapshots {
		total += sn.Crawlable()
	}
	return float64(total) / float64(len(s.Snapshots))
}

// UniquePeers returns the number of distinct peer IDs across all crawls
// (the paper's 53,898).
func (s *Series) UniquePeers() int {
	set := make(map[ids.PeerID]bool)
	for _, sn := range s.Snapshots {
		for i := range sn.Peers {
			set[sn.Peers[i].Peer] = true
		}
	}
	return len(set)
}

// UniqueIPs returns the number of distinct non-local IPs across all
// crawls (the paper's 86,064).
func (s *Series) UniqueIPs() int {
	set := make(map[netip.Addr]bool)
	for _, sn := range s.Snapshots {
		for i := range sn.Peers {
			for _, ip := range sn.Peers[i].IPs() {
				set[ip] = true
			}
		}
	}
	return len(set)
}

// MeanIPsPerPeer returns the average number of distinct non-local IPs a
// peer advertised across all crawls (the paper's 1.82).
func (s *Series) MeanIPsPerPeer() float64 {
	perPeer := make(map[ids.PeerID]map[netip.Addr]bool)
	for _, sn := range s.Snapshots {
		for i := range sn.Peers {
			o := &sn.Peers[i]
			m := perPeer[o.Peer]
			if m == nil {
				m = make(map[netip.Addr]bool)
				perPeer[o.Peer] = m
			}
			for _, ip := range o.IPs() {
				m[ip] = true
			}
		}
	}
	if len(perPeer) == 0 {
		return 0
	}
	total := 0
	for _, m := range perPeer {
		total += len(m)
	}
	return float64(total) / float64(len(perPeer))
}
