package trace

import (
	"net/netip"
	"reflect"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

func ev(t int64, peer, ipLow uint64, mt netsim.MsgType, cid uint64) Event {
	e := Event{Time: t, Peer: ids.PeerIDFromSeed(peer), Type: mt}
	if ipLow != 0 {
		e.IP = netip.AddrFrom4([4]byte{10, 0, byte(ipLow >> 8), byte(ipLow)})
	}
	if cid != 0 {
		e.CID = ids.CIDFromSeed(cid)
	}
	return e
}

// feed replays events into a pipeline and returns its accumulator.
func feed(opts Options, events []Event) *Accum {
	p := NewPipeline(opts)
	for _, e := range events {
		p.Observe(e)
	}
	return p.Stats()
}

func TestAccumTaggedShares(t *testing.T) {
	tagged := ids.PeerIDFromSeed(77)
	opts := Options{TagPeer: func(p ids.PeerID) bool { return p == tagged }}
	events := []Event{
		ev(1, 77, 5, netsim.MsgGetProviders, 1),
		ev(2, 77, 5, netsim.MsgGetProviders, 2),
		ev(3, 1, 6, netsim.MsgGetProviders, 3),
		ev(4, 2, 0, netsim.MsgGetProviders, 4), // invalid IP, untagged
		ev(5, 1, 6, netsim.MsgAddProvider, 5),
	}
	st := feed(opts, events)
	attr := func(ip netip.Addr) string {
		if !ip.IsValid() {
			return "dark"
		}
		return "lit"
	}
	// Two tagged events, two untagged with an IP, one without.
	if got, want := st.TaggedGroupShareByIP("special", attr), map[string]float64{"special": 0.4, "lit": 0.4, "dark": 0.2}; !reflect.DeepEqual(got, want) {
		t.Errorf("TaggedGroupShareByIP: %v, want %v", got, want)
	}
	if got, want := st.ClassTaggedGroupShareByIP(Download, "special", attr), map[string]float64{"special": 0.5, "lit": 0.25, "dark": 0.25}; !reflect.DeepEqual(got, want) {
		t.Errorf("ClassTaggedGroupShareByIP: %v, want %v", got, want)
	}
	// No tagged traffic in a class → no tag label key.
	adv := st.ClassTaggedGroupShareByIP(Advertise, "special", attr)
	if _, ok := adv["special"]; ok {
		t.Errorf("tag label present with zero tagged advertise traffic: %v", adv)
	}
}

func TestAccumEmptyAndSingleEvent(t *testing.T) {
	// Empty accumulator: every analysis returns empty, never panics.
	st := newAccum(nil, nil)
	activity := 0
	st.EachPeerActivity(func(ids.PeerID, int64) { activity++ })
	st.EachIPActivity(func(netip.Addr, int64) { activity++ })
	x := func(netip.Addr) string { return "x" }
	if st.Len() != 0 || len(st.Mix()) != 0 || activity != 0 ||
		len(st.UniqueIPShare(x)) != 0 || len(st.GroupShareByIP(x)) != 0 ||
		st.CIDsOnDay(0) != nil {
		t.Error("empty accumulator leaked state")
	}
	// Single event: days-seen histograms are exactly {1 day: 1 entity}.
	st.Observe(ev(5, 1, 1, netsim.MsgGetProviders, 9))
	for name, hist := range map[string]map[int]int{
		"cid":  st.DaysSeenByCID(),
		"ip":   st.DaysSeenByIP(),
		"peer": st.DaysSeenByPeer(),
	} {
		if len(hist) != 1 || hist[1] != 1 {
			t.Errorf("%s days-seen after one event: %v", name, hist)
		}
	}
}

func TestEventsAliasing(t *testing.T) {
	var l Log
	l.Append(ev(1, 1, 1, netsim.MsgGetProviders, 1))
	snap := l.Events()
	// The snapshot aliases the backing array at the moment of the call;
	// it does not see later appends (the log may also have moved to a
	// new array — either way the old snapshot keeps its length).
	l.Append(ev(2, 2, 2, netsim.MsgAddProvider, 2))
	if len(snap) != 1 {
		t.Fatalf("snapshot length changed to %d", len(snap))
	}
	if got := l.Events(); len(got) != 2 {
		t.Fatalf("log lost events: %d", len(got))
	}
}

func TestPipelineModes(t *testing.T) {
	// nil: inactive, no stats, no log.
	var d *Pipeline
	if d.Active() || d.Stats() != nil || d.Log() != nil {
		t.Error("nil pipeline is not inert")
	}
	// Streaming (default): stats, no log.
	s := NewPipeline(Options{})
	if !s.Active() || s.Stats() == nil || s.Log() != nil {
		t.Error("streaming pipeline shape wrong")
	}
	// Keep filter: filtered events stay out of the stats but in the
	// retained log.
	drop := ids.PeerIDFromSeed(9)
	p := NewPipeline(Options{Retain: true, Keep: func(e Event) bool { return e.Peer != drop }})
	p.Observe(ev(1, 9, 1, netsim.MsgGetProviders, 1))
	p.Observe(ev(2, 2, 2, netsim.MsgGetProviders, 2))
	if n := len(p.Log().Events()); n != 2 {
		t.Errorf("retained log holds %d events, want 2 (retention is unfiltered)", n)
	}
	leaked := false
	p.Stats().EachPeerActivity(func(peer ids.PeerID, _ int64) { leaked = leaked || peer == drop })
	if p.Stats().Len() != 1 || leaked {
		t.Error("Keep filter leaked into the stats")
	}
}

func TestPipelineLaneMerge(t *testing.T) {
	// Events written through two lanes land in the root in lane order,
	// regardless of interleaving during the phase.
	p := NewPipeline(Options{Retain: true})
	var e0, e1 netsim.Effects
	lane0 := p.Via(&e0)
	lane1 := p.Via(&e1)
	lane1.Observe(ev(10, 2, 2, netsim.MsgAddProvider, 2))
	lane0.Observe(ev(5, 1, 1, netsim.MsgGetProviders, 1))
	lane1.Observe(ev(11, 3, 3, netsim.MsgFindNode, 0))
	if p.Stats().Len() != 0 {
		t.Fatal("lane events reached the root before the merge")
	}
	// Merge in lane order, as netsim.Apply does.
	p.MergeLane(lane0.(*pipeLane))
	p.MergeLane(lane1.(*pipeLane))
	evs := p.Log().Events()
	if len(evs) != 3 || evs[0].Time != 5 || evs[1].Time != 10 || evs[2].Time != 11 {
		t.Fatalf("lane merge order wrong: %v", evs)
	}
	if p.Stats().Len() != 3 {
		t.Fatalf("stats folded %d events", p.Stats().Len())
	}
	// Lane buffers reset for reuse.
	if lane0.(*pipeLane).events == nil {
		t.Skip("buffer may be nil after reset; only length matters")
	}
	if len(lane0.(*pipeLane).events) != 0 {
		t.Error("lane buffer not reset after merge")
	}
}

func TestPipelineViaSerial(t *testing.T) {
	p := NewPipeline(Options{})
	if p.Via(nil) != Sink(p) {
		t.Error("nil lane must observe the pipeline directly")
	}
}

func TestDaySetSpill(t *testing.T) {
	var ds daySet
	ds.add(3)
	ds.add(3)
	ds.add(63)
	ds.add(64)  // spills
	ds.add(200) // spills
	ds.add(200)
	if ds.count() != 4 {
		t.Fatalf("count = %d, want 4", ds.count())
	}
	for _, day := range []int64{3, 63, 64, 200} {
		if !ds.has(day) {
			t.Errorf("day %d missing", day)
		}
	}
	if ds.has(5) || ds.has(65) {
		t.Error("phantom days present")
	}
}
