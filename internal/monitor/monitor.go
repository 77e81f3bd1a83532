// Package monitor implements the Bitswap monitoring node of the paper
// (Section 3, "Bitswap logs"; originally from Balduf et al., ICDCS 2022):
// a modified IPFS node with unbounded connection capacity that logs every
// incoming Bitswap broadcast — here, into a trace.Pipeline that folds the
// stream into bounded statistics (and optionally retains the raw events).
//
// The monitor sees the subset of Bitswap traffic broadcast by its
// neighbours: only the initial provider-discovery WANTs, not unicast
// responses. It also carries a small blockstore so the gateway-probe
// workflow (unique content planted on the monitor, requested through a
// gateway's HTTP side) works exactly as in the paper.
//
// The package also implements the daily-sample pipeline: aggregate a
// day's requests, extract and deduplicate the CIDs, and draw a fixed-size
// uniform sample (200k/day in the paper).
package monitor

import (
	"math/rand"
	"sort"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/trace"
)

// Monitor is a Bitswap monitoring node. It implements netsim.Handler.
type Monitor struct {
	id     ids.PeerID
	net    *netsim.Network
	pipe   *trace.Pipeline
	blocks map[ids.CID]bool
}

// New creates a monitor with the given overlay identity, observing into
// the given pipeline. The caller attaches it to the network as a
// reachable host.
func New(id ids.PeerID, net *netsim.Network, pipe *trace.Pipeline) *Monitor {
	return &Monitor{
		id:     id,
		net:    net,
		pipe:   pipe,
		blocks: make(map[ids.CID]bool),
	}
}

// ID returns the monitor's overlay identity.
func (m *Monitor) ID() ids.PeerID { return m.id }

// Log returns the retained raw Bitswap traces, or nil when the pipeline
// does not retain events (streaming campaigns; use Stats instead).
func (m *Monitor) Log() *trace.Log { return m.pipe.Log() }

// Stats returns the streaming Bitswap statistics.
func (m *Monitor) Stats() *trace.Accum { return m.pipe.Stats() }

// Tap attaches a sink that sees every subsequent broadcast (serial mode
// only) and returns its detach function — how the gateway prober watches
// for the WANT of its planted content without the monitor retaining raw
// events.
func (m *Monitor) Tap(s trace.Sink) (remove func()) { return m.pipe.Tap(s) }

// AddBlock plants content on the monitor (used by the gateway probe: we
// are then "reasonably certain to be the only provider").
func (m *Monitor) AddBlock(c ids.CID) { m.blocks[c] = true }

// HandleBitswapWant logs the broadcast and answers from the blockstore.
// The observation goes through the caller's lane sink, so broadcasts
// from concurrent shards land in the pipeline in deterministic
// lane-merge order.
func (m *Monitor) HandleBitswapWant(env *netsim.Effects, from ids.PeerID, c ids.CID) bool {
	if m.pipe.Active() {
		m.pipe.Via(env).Observe(trace.Event{
			Time: m.net.Clock.Now(),
			Peer: from,
			IP:   m.net.ObservedAddr(from),
			Type: netsim.MsgBitswapWant,
			CID:  c,
		})
	}
	return m.blocks[c]
}

// HandleFindNode: the monitor is not a DHT server.
func (m *Monitor) HandleFindNode(env *netsim.Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	return closer
}

// HandleGetProviders: the monitor is not a DHT server.
func (m *Monitor) HandleGetProviders(env *netsim.Effects, from ids.PeerID, c ids.CID, recs []netsim.ProviderRecord, closer []ids.PeerID) ([]netsim.ProviderRecord, []ids.PeerID) {
	return recs, closer
}

// HandleAddProvider: records are ignored; the monitor only listens.
func (m *Monitor) HandleAddProvider(env *netsim.Effects, from ids.PeerID, c ids.CID, rec netsim.ProviderRecord) {
}

// SampleDay implements the paper's daily sampled Bitswap CIDs dataset
// from the streaming statistics: the distinct CIDs requested on the
// given virtual day are sampled uniformly down to sampleSize and
// returned key-sorted; if fewer were seen, all are returned. The day's
// CIDs come key-sorted before the shuffle, so the sample is
// deterministic for a given rng. The invariant suite holds it equal to
// an independent batch sample over the retained raw log.
func (m *Monitor) SampleDay(day int64, sampleSize int, rng *rand.Rand) []ids.CID {
	st := m.pipe.Stats()
	if st == nil {
		return nil
	}
	all := st.CIDsOnDay(day)
	if len(all) <= sampleSize {
		return all
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := all[:sampleSize]
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Cmp(out[j].Key()) < 0 })
	return out
}
