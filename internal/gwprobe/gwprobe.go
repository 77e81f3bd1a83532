// Package gwprobe implements the paper's gateway-identification technique
// (Section 3, "Gateways"): generate a unique, random piece of content,
// store it on the Bitswap monitoring node (making us with near certainty
// its only provider), request it through the gateway's public HTTP side,
// and watch the monitor's Bitswap log — the WANT for that unique CID
// reveals the overlay peer ID and address of the gateway node that served
// the HTTP request.
//
// Because large gateways reverse-proxy one HTTP endpoint onto several
// overlay nodes, a single probe discovers only one node; repeating the
// probe enumerates them all over time.
package gwprobe

import (
	"encoding/binary"
	"sort"

	"tcsb/internal/gateway"
	"tcsb/internal/ids"
	"tcsb/internal/monitor"
	"tcsb/internal/netsim"
	"tcsb/internal/trace"
)

// Prober identifies gateway overlay IDs through a Bitswap monitor.
type Prober struct {
	mon *monitor.Monitor
	seq uint64
	// nonce distinguishes this prober's unique content from everything
	// else in the simulation.
	nonce uint64
	// online is the world's backend-liveness view, threaded into the
	// gateway's HTTP load balancer: probing a fully dark cluster (e.g.
	// under a counterfactual provider outage) fails like any other HTTP
	// request would. nil treats every backend as online.
	online func(ids.PeerID) bool
	// net and timing, when instrumented, derive each probe's duration
	// from the shared link model instead of leaving probes timeless —
	// closing the gap where probe traffic escaped the latency figures.
	net    *netsim.Network
	timing *trace.TimingSink
}

// New creates a prober using the given monitoring node. online supplies
// backend liveness for the probed gateways (nil = all online).
func New(mon *monitor.Monitor, nonce uint64, online func(ids.PeerID) bool) *Prober {
	return &Prober{mon: mon, nonce: nonce, online: online}
}

// Instrument wires the prober to the network's link model and a timing
// sink: every subsequent probe's drawn link latency folds into the
// sink's probe-phase sketch. Uninstrumented probers behave exactly as
// before (no draws are consumed either way — the fetch itself charges
// the latency).
func (p *Prober) Instrument(net *netsim.Network, timing *trace.TimingSink) {
	p.net = net
	p.timing = timing
}

// uniqueCID generates fresh content no one else provides.
func (p *Prober) uniqueCID() ids.CID {
	p.seq++
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], p.nonce)
	binary.BigEndian.PutUint64(buf[8:], p.seq)
	return ids.CIDFromContent(buf[:])
}

// ProbeOnce runs one probe against a gateway: plant unique content on the
// monitor, attach a tap watching for the planted CID, fetch the content
// via the gateway's HTTP side, and read the serving overlay node off the
// first matching WANT the tap saw. Probes are serial by protocol (each
// reads its own trace back), so the tap observes events immediately; no
// raw log retention is needed. It returns the discovered overlay ID and
// whether the probe succeeded.
func (p *Prober) ProbeOnce(gw *gateway.Gateway) (ids.PeerID, bool) {
	c := p.uniqueCID()
	p.mon.AddBlock(c)
	var hit ids.PeerID
	found := false
	remove := p.mon.Tap(trace.SinkFunc(func(e trace.Event) {
		if !found && e.CID == c {
			hit, found = e.Peer, true
		}
	}))
	defer remove()
	var mark int64
	if p.net != nil {
		mark = p.net.LatencyMark(nil)
	}
	ok, _ := gw.FetchHTTP(nil, c, p.online)
	if p.net != nil {
		p.timing.Record(nil, trace.PhaseProbe, p.net.LatencyMark(nil)-mark)
	}
	if !ok {
		return ids.PeerID{}, false
	}
	return hit, found
}

// Identify repeatedly probes a gateway, returning the distinct overlay
// IDs discovered, sorted by key for determinism.
func (p *Prober) Identify(gw *gateway.Gateway, rounds int) []ids.PeerID {
	seen := make(map[ids.PeerID]bool)
	for i := 0; i < rounds; i++ {
		if id, ok := p.ProbeOnce(gw); ok {
			seen[id] = true
		}
	}
	out := make([]ids.PeerID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Cmp(out[j].Key()) < 0 })
	return out
}

// Census probes every gateway in the list, returning the union of
// discovered overlay IDs per gateway domain plus a global set — the
// paper's "119 unique overlay IDs across 22 working gateways" style
// dataset.
func (p *Prober) Census(gws []*gateway.Gateway, roundsPerGateway int) map[string][]ids.PeerID {
	out := make(map[string][]ids.PeerID, len(gws))
	for _, gw := range gws {
		out[gw.Domain()] = p.Identify(gw, roundsPerGateway)
	}
	return out
}

// GatewayPeerSet flattens a census into a membership set usable as the
// gateway/non-gateway split of Fig. 10.
func GatewayPeerSet(census map[string][]ids.PeerID) map[ids.PeerID]bool {
	out := make(map[ids.PeerID]bool)
	for _, idsList := range census {
		for _, id := range idsList {
			out[id] = true
		}
	}
	return out
}
