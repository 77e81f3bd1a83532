package gwprobe

import (
	"net/netip"
	"reflect"
	"testing"

	"tcsb/internal/gateway"
	"tcsb/internal/ids"
	"tcsb/internal/monitor"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/simtest"
	"tcsb/internal/trace"
)

// fixture builds a network with a monitor and a 3-node gateway whose
// overlay nodes are Bitswap-connected to the monitor (gateways maintain
// many Bitswap connections; the monitor accepts all).
func fixture(t *testing.T, gwNodes int) (*simtest.Net, *monitor.Monitor, *gateway.Gateway) {
	t.Helper()
	net := simtest.BuildServers(100)

	monID := ids.PeerIDFromSeed(1 << 61)
	mon := monitor.New(monID, net.Network, trace.NewPipeline(trace.Options{Retain: true}))
	net.Network.Attach(monID, mon, netsim.HostConfig{Reachable: true})

	var backing []*node.Node
	for i := 0; i < gwNodes; i++ {
		nd := net.Nodes[10+i]
		nd.ConnectBitswap(monID)
		backing = append(backing, nd)
	}
	gw := gateway.New("example-gateway.io",
		[]netip.Addr{netip.MustParseAddr("104.17.5.5")}, backing)
	return net, mon, gw
}

func TestProbeOnceDiscoversOverlayID(t *testing.T) {
	net, mon, gw := fixture(t, 1)
	p := New(mon, 42, nil)
	id, ok := p.ProbeOnce(gw)
	if !ok {
		t.Fatal("probe failed")
	}
	if want := net.Nodes[10].ID(); id != want {
		t.Fatalf("discovered %s, want %s", id.Short(), want.Short())
	}
}

func TestIdentifyEnumeratesAllNodes(t *testing.T) {
	net, mon, gw := fixture(t, 3)
	p := New(mon, 42, nil)
	found := p.Identify(gw, 12) // round-robin: 12 probes cover 3 nodes
	if len(found) != 3 {
		t.Fatalf("identified %d overlay IDs, want 3", len(found))
	}
	want := map[ids.PeerID]bool{}
	for _, nd := range net.Nodes[10:13] { // the fixture's backing nodes
		want[nd.ID()] = true
	}
	for _, id := range found {
		if !want[id] {
			t.Fatalf("discovered non-gateway ID %s", id.Short())
		}
	}
}

func TestProbeUsesUniqueContent(t *testing.T) {
	_, mon, gw := fixture(t, 1)
	p := New(mon, 42, nil)
	logBefore := len(mon.Log().Events())
	p.ProbeOnce(gw)
	p.ProbeOnce(gw)
	events := mon.Log().Events()[logBefore:]
	if len(events) < 2 {
		t.Fatalf("expected 2 probe events, got %d", len(events))
	}
	if events[0].CID == events[1].CID {
		t.Fatal("probe reused content between rounds")
	}
}

func TestGatewayCacheServesRepeats(t *testing.T) {
	_, mon, gw := fixture(t, 1)
	p := New(mon, 42, nil)
	c := p.uniqueCID()
	mon.AddBlock(c)
	if ok, _ := gw.FetchHTTP(nil, c, nil); !ok {
		t.Fatal("first fetch failed")
	}
	if ok, _ := gw.FetchHTTP(nil, c, nil); !ok {
		t.Fatal("cached fetch failed")
	}
	if gw.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", gw.CacheHits)
	}
	if gw.Requests != 2 {
		t.Fatalf("Requests = %d, want 2", gw.Requests)
	}
}

func TestCensus(t *testing.T) {
	net, mon, gw1 := fixture(t, 2)
	// Second gateway on different nodes.
	var backing []*node.Node
	for i := 0; i < 2; i++ {
		nd := net.Nodes[30+i]
		nd.ConnectBitswap(mon.ID())
		backing = append(backing, nd)
	}
	gw2 := gateway.New("other-gw.dev", []netip.Addr{netip.MustParseAddr("52.8.8.8")}, backing)

	p := New(mon, 42, nil)
	census := p.Census([]*gateway.Gateway{gw1, gw2}, 8)
	if len(census) != 2 {
		t.Fatalf("census covers %d gateways", len(census))
	}
	if len(census["example-gateway.io"]) != 2 || len(census["other-gw.dev"]) != 2 {
		t.Fatalf("census = %v", census)
	}
	set := GatewayPeerSet(census)
	if len(set) != 4 {
		t.Fatalf("peer set size = %d, want 4", len(set))
	}
}

// TestInstrumentedProbeLatency pins the fix for the probe latency gap
// (probe traffic used to bypass the link model entirely): an
// instrumented prober draws probe durations from the shared model. The
// figure delta against the historical uninstrumented prober is pinned
// to zero — instrumentation must not change what a census discovers,
// under the identity profile or a delay-only measured one.
func TestInstrumentedProbeLatency(t *testing.T) {
	census := func(instrument bool, spec string) (map[string][]ids.PeerID, *trace.TimingSink) {
		net, mon, gw := fixture(t, 2)
		if spec != "" {
			prof, err := netsim.ParseLinkProfile(spec)
			if err != nil {
				t.Fatal(err)
			}
			net.Network.SetLinkModel(prof, 7)
		}
		p := New(mon, 42, nil)
		sink := trace.NewTimingSink(false)
		if instrument {
			p.Instrument(net.Network, sink)
		}
		return p.Census([]*gateway.Gateway{gw}, 8), sink
	}

	base, _ := census(false, "")
	ideal, idealSink := census(true, "")
	if !reflect.DeepEqual(base, ideal) {
		t.Fatalf("instrumentation changed the ideal-profile census: %v vs %v", base, ideal)
	}
	sk := idealSink.Sketch(trace.PhaseProbe)
	if sk.Count() != 8 || sk.Sum() != 0 {
		t.Fatalf("ideal profile: probe sketch count=%d sum=%v, want 8 zero-cost samples", sk.Count(), sk.Sum())
	}

	measured, measuredSink := census(true, "cloud-cloud=8ms±3")
	if !reflect.DeepEqual(base, measured) {
		t.Fatalf("delay-only link model changed the census: %v vs %v", base, measured)
	}
	sk = measuredSink.Sketch(trace.PhaseProbe)
	if sk.Count() != 8 {
		t.Fatalf("measured profile: probe sketch count=%d, want 8", sk.Count())
	}
	// Every probe issues at least one Bitswap RPC, each drawn in [5ms, 11ms].
	if sk.Min() < 5_000 {
		t.Fatalf("measured probe min %vµs below the drawn floor", sk.Min())
	}
}

func TestProbeFailsWithoutBitswapPath(t *testing.T) {
	net := simtest.BuildServers(50)
	monID := ids.PeerIDFromSeed(1 << 61)
	mon := monitor.New(monID, net.Network, trace.NewPipeline(trace.Options{Retain: true}))
	net.Network.Attach(monID, mon, netsim.HostConfig{Reachable: true})
	// Gateway node NOT connected to the monitor and content not in DHT:
	// the unique content is unreachable, probe must fail gracefully.
	gw := gateway.New("dark-gw.io", nil, []*node.Node{net.Nodes[5]})
	p := New(mon, 42, nil)
	if _, ok := p.ProbeOnce(gw); ok {
		t.Fatal("probe succeeded without any retrieval path")
	}
}
