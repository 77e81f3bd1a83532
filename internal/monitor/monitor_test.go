package monitor

import (
	"math/rand"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/simtest"
	"tcsb/internal/trace"
)

func attachMonitor(net *simtest.Net) *Monitor {
	id := ids.PeerIDFromSeed(1 << 61)
	m := New(id, net.Network, trace.NewPipeline(trace.Options{Retain: true}))
	net.Network.Attach(id, m, netsim.HostConfig{Reachable: true})
	return m
}

func TestMonitorLogsBroadcasts(t *testing.T) {
	net := simtest.BuildServers(20)
	m := attachMonitor(net)
	// Three nodes connect to the monitor and broadcast wants.
	for i := 0; i < 3; i++ {
		net.Nodes[i].ConnectBitswap(m.ID())
	}
	c := ids.CIDFromSeed(1)
	for i := 0; i < 3; i++ {
		net.Nodes[i].Retrieve(nil, c)
	}
	if len(m.Log().Events()) != 3 {
		t.Fatalf("monitor logged %d events, want 3", len(m.Log().Events()))
	}
	for _, e := range m.Log().Events() {
		if e.Type != netsim.MsgBitswapWant {
			t.Errorf("event type %v", e.Type)
		}
		if e.CID != c {
			t.Errorf("event CID %v", e.CID)
		}
		if !e.IP.IsValid() {
			t.Error("event missing source IP")
		}
	}
	if got := m.Stats().DistinctPeers(); got != 3 {
		t.Errorf("distinct requesters = %d, want 3", got)
	}
}

func TestMonitorObservesRelayIPForNATedSenders(t *testing.T) {
	net := simtest.BuildServers(20)
	m := attachMonitor(net)

	natID := ids.PeerIDFromSeed(7777)
	relay := net.Nodes[0]
	natNode := newClientNode(net, natID, relay.ID())
	natNode.ConnectBitswap(m.ID())

	natNode.Retrieve(nil, ids.CIDFromSeed(5))
	if len(m.Log().Events()) == 0 {
		t.Fatal("no events logged")
	}
	e := m.Log().Events()[0]
	if e.IP != net.Network.PrimaryIP(relay.ID()) {
		t.Errorf("observed IP %v, want relay IP %v", e.IP, net.Network.PrimaryIP(relay.ID()))
	}
}

func TestMonitorServesPlantedContent(t *testing.T) {
	net := simtest.BuildServers(20)
	m := attachMonitor(net)
	c := ids.CIDFromSeed(9)
	m.AddBlock(c)
	net.Nodes[1].ConnectBitswap(m.ID())
	before := net.Network.TotalMessages()
	if !net.Nodes[1].Retrieve(nil, c) {
		t.Fatal("planted content not found")
	}
	// One WANT, no DHT walk: the monitor answered the broadcast.
	if got := net.Network.TotalMessages() - before; got != 1 {
		t.Fatalf("retrieval sent %d RPCs, want the one WANT", got)
	}
	if got := m.Stats().Len(); got != 1 {
		t.Fatalf("monitor saw %d WANTs, want 1", got)
	}
}

func TestMonitorIsNotDHTServer(t *testing.T) {
	net := simtest.BuildServers(5)
	m := attachMonitor(net)
	if got := m.HandleFindNode(nil, net.Nodes[0].ID(), ids.KeyFromUint64(0), nil); got != nil {
		t.Error("monitor answered FindNode")
	}
	recs, closer := m.HandleGetProviders(nil, net.Nodes[0].ID(), ids.CIDFromSeed(1), nil, nil)
	if recs != nil || closer != nil {
		t.Error("monitor answered GetProviders")
	}
}

func TestMonitorStreamingStats(t *testing.T) {
	// A streaming (non-retaining) monitor folds the same information the
	// retained log would hold: event counts, per-day CID sets, distinct
	// requesters — with Log() unavailable by design.
	net := simtest.BuildServers(20)
	id := ids.PeerIDFromSeed(1 << 60)
	m := New(id, net.Network, trace.NewPipeline(trace.Options{}))
	net.Network.Attach(id, m, netsim.HostConfig{Reachable: true})
	for i := 0; i < 3; i++ {
		net.Nodes[i].ConnectBitswap(m.ID())
		net.Nodes[i].Retrieve(nil, ids.CIDFromSeed(uint64(i)))
	}
	if m.Log() != nil {
		t.Fatal("streaming monitor retained a raw log")
	}
	if got := m.Stats().Len(); got != 3 {
		t.Fatalf("stats folded %d events, want 3", got)
	}
	if got := m.Stats().DistinctPeers(); got != 3 {
		t.Fatalf("distinct requesters = %d, want 3", got)
	}
	sample := m.SampleDay(0, 10, rand.New(rand.NewSource(1)))
	if len(sample) != 3 {
		t.Fatalf("SampleDay returned %d CIDs, want 3", len(sample))
	}
}

func TestMonitorTapSeesEvents(t *testing.T) {
	net := simtest.BuildServers(20)
	m := attachMonitor(net)
	net.Nodes[0].ConnectBitswap(m.ID())
	var tapped []trace.Event
	remove := m.Tap(trace.SinkFunc(func(e trace.Event) { tapped = append(tapped, e) }))
	net.Nodes[0].Retrieve(nil, ids.CIDFromSeed(3))
	if len(tapped) != 1 || tapped[0].CID != ids.CIDFromSeed(3) {
		t.Fatalf("tap saw %v", tapped)
	}
	remove()
	net.Nodes[0].Retrieve(nil, ids.CIDFromSeed(4))
	if len(tapped) != 1 {
		t.Fatal("detached tap still observing")
	}
}

// streamingMonitor returns a monitor whose streaming pipeline has
// folded in events, as HandleBitswapWant would have.
func streamingMonitor(events []trace.Event) *Monitor {
	pipe := trace.NewPipeline(trace.Options{})
	for _, e := range events {
		pipe.Observe(e)
	}
	return New(ids.PeerIDFromSeed(1<<61), nil, pipe)
}

func TestDailySample(t *testing.T) {
	var events []trace.Event
	// Day 0: 100 distinct CIDs, each requested 3 times. Day 1: 10 CIDs.
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 100; i++ {
			events = append(events, trace.Event{
				Time: int64(rep * 100),
				CID:  ids.CIDFromSeed(uint64(i)),
				Type: netsim.MsgBitswapWant,
			})
		}
	}
	for i := 0; i < 10; i++ {
		events = append(events, trace.Event{
			Time: trace.SecondsPerDay + int64(i),
			CID:  ids.CIDFromSeed(uint64(1000 + i)),
			Type: netsim.MsgBitswapWant,
		})
	}
	m := streamingMonitor(events)

	rng := rand.New(rand.NewSource(1))
	day0 := m.SampleDay(0, 30, rng)
	if len(day0) != 30 {
		t.Fatalf("sampled %d CIDs, want 30", len(day0))
	}
	// Dedup: no CID twice.
	seen := map[ids.CID]bool{}
	for _, c := range day0 {
		if seen[c] {
			t.Fatal("duplicate CID in sample")
		}
		seen[c] = true
	}
	// Fewer CIDs than sample size: all returned.
	day1 := m.SampleDay(1, 30, rng)
	if len(day1) != 10 {
		t.Fatalf("day 1 sample = %d, want all 10", len(day1))
	}
}

func TestDailySampleDeterministic(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 50; i++ {
		events = append(events, trace.Event{Time: 5, CID: ids.CIDFromSeed(uint64(i))})
	}
	m := streamingMonitor(events)
	a := m.SampleDay(0, 10, rand.New(rand.NewSource(42)))
	b := m.SampleDay(0, 10, rand.New(rand.NewSource(42)))
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("sampled %d and %d CIDs, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample not deterministic for equal seeds")
		}
	}
}

// newClientNode builds a NAT-ed DHT client wired through the given relay.
func newClientNode(net *simtest.Net, id ids.PeerID, relay ids.PeerID) *clientNode {
	nd := nodeNew(id, net, relay)
	return nd
}
