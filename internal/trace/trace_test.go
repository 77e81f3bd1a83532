package trace

import (
	"math"
	"net/netip"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

// accumOf folds events into a standalone accumulator.
func accumOf(events []Event) *Accum {
	a := newAccum(nil, nil)
	for _, e := range events {
		a.Observe(e)
	}
	return a
}

func TestClassify(t *testing.T) {
	cases := map[netsim.MsgType]Class{
		netsim.MsgGetProviders: Download,
		netsim.MsgBitswapWant:  Download,
		netsim.MsgAddProvider:  Advertise,
		netsim.MsgFindNode:     Other,
	}
	for mt, want := range cases {
		if got := Classify(mt); got != want {
			t.Errorf("Classify(%v) = %v, want %v", mt, got, want)
		}
	}
	if Download.String() != "download" || Advertise.String() != "advertise" || Other.String() != "other" {
		t.Error("class labels wrong")
	}
}

func TestMix(t *testing.T) {
	var events []Event
	for i := 0; i < 57; i++ {
		events = append(events, Event{Type: netsim.MsgGetProviders})
	}
	for i := 0; i < 40; i++ {
		events = append(events, Event{Type: netsim.MsgAddProvider})
	}
	for i := 0; i < 3; i++ {
		events = append(events, Event{Type: netsim.MsgFindNode})
	}
	mix := accumOf(events).Mix()
	if math.Abs(mix[Download]-0.57) > 1e-12 || math.Abs(mix[Advertise]-0.40) > 1e-12 || math.Abs(mix[Other]-0.03) > 1e-12 {
		t.Fatalf("mix = %v", mix)
	}
}

func TestDaysSeenHistogram(t *testing.T) {
	c1 := ids.CIDFromSeed(1) // seen on days 0 and 1
	c2 := ids.CIDFromSeed(2) // seen only on day 0, twice
	hist := accumOf([]Event{
		{Time: 0, CID: c1, Type: netsim.MsgGetProviders},
		{Time: SecondsPerDay + 5, CID: c1, Type: netsim.MsgGetProviders},
		{Time: 10, CID: c2, Type: netsim.MsgGetProviders},
		{Time: 20, CID: c2, Type: netsim.MsgGetProviders},
		// An event with no CID must be skipped.
		{Time: 30, Type: netsim.MsgFindNode},
	}).DaysSeenByCID()
	if hist[1] != 1 || hist[2] != 1 {
		t.Fatalf("hist = %v, want {1:1, 2:1}", hist)
	}
}

func TestDaysSeenByIPAndPeer(t *testing.T) {
	p := ids.PeerIDFromSeed(1)
	st := accumOf([]Event{
		{Time: 0, Peer: p, IP: ip("52.0.0.1")},
		{Time: 3 * SecondsPerDay, Peer: p, IP: ip("52.0.0.2")},
	})
	ipHist := st.DaysSeenByIP()
	if ipHist[1] != 2 {
		t.Fatalf("ip hist = %v, want two 1-day IPs", ipHist)
	}
	peerHist := st.DaysSeenByPeer()
	if peerHist[2] != 1 {
		t.Fatalf("peer hist = %v, want one 2-day peer", peerHist)
	}
}

func TestActivityMaps(t *testing.T) {
	var events []Event
	p1, p2 := ids.PeerIDFromSeed(1), ids.PeerIDFromSeed(2)
	for i := 0; i < 9; i++ {
		events = append(events, Event{Peer: p1, IP: ip("52.0.0.1")})
	}
	events = append(events, Event{Peer: p2, IP: ip("91.0.0.1")}, Event{Peer: p2})
	st := accumOf(events)
	byPeer := map[ids.PeerID]int64{}
	st.EachPeerActivity(func(p ids.PeerID, n int64) { byPeer[p] = n })
	if len(byPeer) != 2 || byPeer[p1] != 9 || byPeer[p2] != 2 {
		t.Fatalf("byPeer = %v", byPeer)
	}
	// Events without an IP count for their peer, but not per IP.
	byIP := map[netip.Addr]int64{}
	st.EachIPActivity(func(a netip.Addr, n int64) { byIP[a] = n })
	if len(byIP) != 2 || byIP[ip("52.0.0.1")] != 9 || byIP[ip("91.0.0.1")] != 1 {
		t.Fatalf("byIP = %v", byIP)
	}
}

// seqOf streams an activity map as a Seq.
func seqOf[K comparable](activity map[K]int64) Seq[K] {
	return func(yield func(K, int64)) {
		for k, v := range activity {
			yield(k, v)
		}
	}
}

func TestTopShare(t *testing.T) {
	activity := map[string]int64{}
	// 100 entities: one generates 901 messages, 99 generate 1 each.
	activity["whale"] = 901
	for i := 0; i < 99; i++ {
		activity[string(rune('a'+i%26))+string(rune('0'+i/26))] = 1
	}
	got := TopShare(seqOf(activity), 0.01) // top 1% = the whale
	if math.Abs(got-0.901) > 1e-9 {
		t.Fatalf("TopShare(1%%) = %v, want 0.901", got)
	}
	if got := TopShare(seqOf(activity), 1.0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TopShare(100%%) = %v", got)
	}
	if got := TopShare(seqOf(map[string]int64{}), 0.05); got != 0 {
		t.Errorf("TopShare over empty activity = %v, want 0", got)
	}
}

func TestGroupShares(t *testing.T) {
	activity := map[string]int64{
		"cloud-a": 85, "cloud-b": 5, "home-a": 5, "home-b": 5,
	}
	group := func(k string) string {
		if k[0] == 'c' {
			return "cloud"
		}
		return "non-cloud"
	}
	traffic := GroupTrafficShare(seqOf(activity), group)
	if math.Abs(traffic["cloud"]-0.9) > 1e-12 {
		t.Errorf("cloud traffic share = %v, want 0.9", traffic["cloud"])
	}
	members := GroupMemberShare(seqOf(activity), group)
	if members["cloud"] != 0.5 || members["non-cloud"] != 0.5 {
		t.Errorf("member shares = %v", members)
	}
}

func TestGroupShareAndUniqueIPShare(t *testing.T) {
	var events []Event
	cloudIP, homeIP := ip("52.0.0.1"), ip("91.0.0.1")
	for i := 0; i < 9; i++ {
		events = append(events, Event{IP: cloudIP, Type: netsim.MsgGetProviders})
	}
	events = append(events, Event{IP: homeIP, Type: netsim.MsgGetProviders})
	st := accumOf(events)

	attr := func(a netip.Addr) string {
		if a == cloudIP {
			return "cloud"
		}
		return "non-cloud"
	}
	traffic := st.GroupShareByIP(attr)
	if math.Abs(traffic["cloud"]-0.9) > 1e-12 {
		t.Errorf("traffic share = %v", traffic)
	}
	unique := st.UniqueIPShare(attr)
	if unique["cloud"] != 0.5 || unique["non-cloud"] != 0.5 {
		t.Errorf("unique IP share = %v", unique)
	}
}

func BenchmarkDaysSeen(b *testing.B) {
	st := newAccum(nil, nil)
	for i := 0; i < 100000; i++ {
		st.Observe(Event{
			Time: int64(i%14) * SecondsPerDay,
			CID:  ids.CIDFromSeed(uint64(i % 5000)),
			Type: netsim.MsgGetProviders,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.DaysSeenByCID()
	}
}
