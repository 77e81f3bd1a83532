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

// feedBoth replays events into a retained pipeline and returns (accum,
// log) — the two views every equivalence assertion compares.
func feedBoth(t *testing.T, opts Options, events []Event) (*Accum, *Log) {
	t.Helper()
	opts.Retain = true
	p := NewPipeline(opts)
	for _, e := range events {
		p.Observe(e)
	}
	return p.Stats(), p.Log()
}

func TestAccumMatchesLogAnalyses(t *testing.T) {
	events := []Event{
		ev(10, 1, 1, netsim.MsgGetProviders, 100),
		ev(20, 2, 2, netsim.MsgAddProvider, 100),
		ev(30, 1, 1, netsim.MsgBitswapWant, 101),
		ev(SecondsPerDay+5, 1, 3, netsim.MsgGetProviders, 100),
		ev(SecondsPerDay+6, 3, 0, netsim.MsgFindNode, 0), // invalid IP, zero CID
		ev(2*SecondsPerDay, 2, 2, netsim.MsgFindNode, 102),
	}
	st, log := feedBoth(t, Options{}, events)

	if st.Len() != log.Len() {
		t.Fatalf("Len: %d vs %d", st.Len(), log.Len())
	}
	if got, want := st.Mix(), log.Mix(); !reflect.DeepEqual(got, want) {
		t.Errorf("Mix: %v vs %v", got, want)
	}
	if got, want := st.ActivityByPeer(), log.ActivityByPeer(); !reflect.DeepEqual(got, want) {
		t.Errorf("ActivityByPeer: %v vs %v", got, want)
	}
	if got, want := st.ActivityByIP(), log.ActivityByIP(); !reflect.DeepEqual(got, want) {
		t.Errorf("ActivityByIP: %v vs %v", got, want)
	}
	if got, want := st.DaysSeenByCID(), DaysSeenHistogram(log, CIDKey); !reflect.DeepEqual(got, want) {
		t.Errorf("DaysSeenByCID: %v vs %v", got, want)
	}
	if got, want := st.DaysSeenByIP(), DaysSeenHistogram(log, IPKey); !reflect.DeepEqual(got, want) {
		t.Errorf("DaysSeenByIP: %v vs %v", got, want)
	}
	if got, want := st.DaysSeenByPeer(), DaysSeenHistogram(log, PeerKey); !reflect.DeepEqual(got, want) {
		t.Errorf("DaysSeenByPeer: %v vs %v", got, want)
	}
	attr := func(ip netip.Addr) string {
		if !ip.IsValid() {
			return "none"
		}
		if ip.As4()[3]%2 == 0 {
			return "even"
		}
		return "odd"
	}
	if got, want := st.GroupShareByIP(attr),
		log.GroupShare(func(e Event) string { return attr(e.IP) }); !reflect.DeepEqual(got, want) {
		t.Errorf("GroupShareByIP: %v vs %v", got, want)
	}
	if got, want := st.UniqueIPShare(attr), log.UniqueIPShare(attr); !reflect.DeepEqual(got, want) {
		t.Errorf("UniqueIPShare: %v vs %v", got, want)
	}
	for _, cl := range []Class{Download, Advertise, Other} {
		cl := cl
		sub := log.Filter(func(e Event) bool { return e.Class() == cl })
		if got, want := st.ClassGroupShareByIP(cl, attr),
			sub.GroupShare(func(e Event) string { return attr(e.IP) }); !reflect.DeepEqual(got, want) {
			t.Errorf("ClassGroupShareByIP(%v): %v vs %v", cl, got, want)
		}
		if got, want := st.ClassUniqueIPShare(cl, attr), sub.UniqueIPShare(attr); !reflect.DeepEqual(got, want) {
			t.Errorf("ClassUniqueIPShare(%v): %v vs %v", cl, got, want)
		}
	}
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
	st, log := feedBoth(t, opts, events)
	attr := func(ip netip.Addr) string {
		if !ip.IsValid() {
			return "dark"
		}
		return "lit"
	}
	batchAttr := func(e Event) string {
		if e.Peer == tagged {
			return "special"
		}
		return attr(e.IP)
	}
	if got, want := st.TaggedGroupShareByIP("special", attr), log.GroupShare(batchAttr); !reflect.DeepEqual(got, want) {
		t.Errorf("TaggedGroupShareByIP: %v vs %v", got, want)
	}
	if got, want := st.ClassTaggedGroupShareByIP(Download, "special", attr),
		log.Filter(func(e Event) bool { return e.Class() == Download }).GroupShare(batchAttr); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassTaggedGroupShareByIP: %v vs %v", got, want)
	}
	// No tagged traffic in a class → no tag label key, like the batch path.
	adv := st.ClassTaggedGroupShareByIP(Advertise, "special", attr)
	if _, ok := adv["special"]; ok {
		t.Errorf("tag label present with zero tagged advertise traffic: %v", adv)
	}
}

func TestAccumEmptyAndSingleEvent(t *testing.T) {
	// Empty accumulator: every analysis returns empty, never panics.
	st := NewAccum()
	if st.Len() != 0 || len(st.Mix()) != 0 || len(st.ActivityByPeer()) != 0 ||
		len(st.ActivityByIP()) != 0 || len(st.UniqueIPShare(func(netip.Addr) string { return "x" })) != 0 ||
		len(st.Days()) != 0 || st.CIDsOnDay(0) != nil {
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

func TestLogEmptyEdgeCases(t *testing.T) {
	var l Log
	// Empty-log analyses: empty results across the board.
	if got := l.Mix(); len(got) != 0 {
		t.Errorf("empty Mix = %v", got)
	}
	if got := l.UniqueIPShare(func(netip.Addr) string { return "g" }); len(got) != 0 {
		t.Errorf("empty UniqueIPShare = %v", got)
	}
	if got := l.ActivityByPeer(); len(got) != 0 {
		t.Errorf("empty ActivityByPeer = %v", got)
	}
	if got := l.ActivityByIP(); len(got) != 0 {
		t.Errorf("empty ActivityByIP = %v", got)
	}
	if got := TopShare(seqOf(map[int]int64{}), 0.05); got != 0 {
		t.Errorf("empty TopShare = %v", got)
	}
	// Single-event histogram.
	l.Append(ev(10, 1, 1, netsim.MsgGetProviders, 3))
	if got := DaysSeenHistogram(&l, CIDKey); len(got) != 1 || got[1] != 1 {
		t.Errorf("single-event DaysSeenHistogram = %v", got)
	}
}

func TestMergeAndFilterAliasing(t *testing.T) {
	var a, b Log
	a.Append(ev(1, 1, 1, netsim.MsgGetProviders, 1))
	b.Append(ev(2, 2, 2, netsim.MsgAddProvider, 2))
	b.Append(ev(3, 3, 3, netsim.MsgFindNode, 0))

	// Merge copies values: growing either log afterwards leaves the
	// other untouched.
	a.Merge(&b)
	if a.Len() != 3 || b.Len() != 2 {
		t.Fatalf("after merge: a=%d b=%d", a.Len(), b.Len())
	}
	b.Append(ev(4, 4, 4, netsim.MsgBitswapWant, 4))
	if a.Len() != 3 {
		t.Error("appending to the merge source grew the destination")
	}
	if a.Events()[1] != b.Events()[0] {
		t.Error("merged values differ from source values")
	}

	// Filter builds fresh storage: appending to the source never shows
	// up in the filtered view, and vice versa.
	f := b.Filter(func(e Event) bool { return e.Class() == Advertise })
	if f.Len() != 1 {
		t.Fatalf("filtered %d events, want 1", f.Len())
	}
	b.Append(ev(5, 5, 5, netsim.MsgAddProvider, 5))
	if f.Len() != 1 {
		t.Error("filter result aliases the source log")
	}
	f.Append(ev(6, 6, 6, netsim.MsgAddProvider, 6))
	if b.Len() != 4 {
		t.Error("appending to the filter result grew the source")
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
	// Discard: inactive, no stats, no log.
	d := NewPipeline(Options{Discard: true})
	if d.Active() || d.Stats() != nil || d.Log() != nil {
		t.Error("discard pipeline is not inert")
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
	if p.Log().Len() != 2 {
		t.Errorf("retained log holds %d events, want 2 (retention is unfiltered)", p.Log().Len())
	}
	if p.Stats().Len() != 1 || p.Stats().SeenPeer(drop) {
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
