package netsim

import (
	"net/netip"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
)

// stubHandler records calls and returns canned answers.
type stubHandler struct {
	findNodeCalls int
	wantCalls     int
	addCalls      int
	getCalls      int
	lastFrom      ids.PeerID
	peers         []ids.PeerID
	has           bool
	recs          []ProviderRecord
}

func (s *stubHandler) HandleFindNode(env *Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	s.findNodeCalls++
	s.lastFrom = from
	return append(closer, s.peers...)
}
func (s *stubHandler) HandleGetProviders(env *Effects, from ids.PeerID, c ids.CID, recs []ProviderRecord, closer []ids.PeerID) ([]ProviderRecord, []ids.PeerID) {
	s.getCalls++
	return append(recs, s.recs...), append(closer, s.peers...)
}
func (s *stubHandler) HandleAddProvider(env *Effects, from ids.PeerID, c ids.CID, rec ProviderRecord) {
	s.addCalls++
}
func (s *stubHandler) HandleBitswapWant(env *Effects, from ids.PeerID, c ids.CID) bool {
	s.wantCalls++
	return s.has
}

func addrOf(ip string) maddr.Addr {
	return maddr.New(netip.MustParseAddr(ip), maddr.TCP, 4001)
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("clock should start at epoch")
	}
	c.Advance(10)
	c.Advance(15)
	if c.Now() != 25 {
		t.Fatalf("Now = %d, want 25", c.Now())
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-1)
}

func TestDialBasics(t *testing.T) {
	n := New()
	a, b := ids.PeerIDFromSeed(1), ids.PeerIDFromSeed(2)
	hb := &stubHandler{has: true}
	n.Attach(b, hb, HostConfig{Reachable: true, Addrs: []maddr.Addr{addrOf("52.1.2.3")}})

	got, err := n.BitswapWant(nil, a, b, ids.CIDFromSeed(1))
	if err != nil || !got {
		t.Fatalf("BitswapWant = %v, %v", got, err)
	}
	if hb.wantCalls != 1 {
		t.Fatalf("handler called %d times", hb.wantCalls)
	}
	if _, err := n.FindNode(nil, nil, a, ids.PeerIDFromSeed(99), ids.KeyFromUint64(1)); err != ErrUnknownPeer {
		t.Fatalf("dial unknown peer: err = %v", err)
	}
}

func TestOfflineRefusesDial(t *testing.T) {
	n := New()
	b := ids.PeerIDFromSeed(2)
	n.Attach(b, &stubHandler{}, HostConfig{Reachable: true})
	n.SetOnline(b, false)
	if _, err := n.FindNode(nil, nil, ids.PeerIDFromSeed(1), b, ids.KeyFromUint64(0)); err != ErrOffline {
		t.Fatalf("err = %v, want ErrOffline", err)
	}
	n.SetOnline(b, true)
	if _, err := n.FindNode(nil, nil, ids.PeerIDFromSeed(1), b, ids.KeyFromUint64(0)); err != nil {
		t.Fatalf("err after re-online = %v", err)
	}
}

func TestNATReachabilityRules(t *testing.T) {
	n := New()
	nat := ids.PeerIDFromSeed(1)
	relay := ids.PeerIDFromSeed(2)
	caller := ids.PeerIDFromSeed(3)

	// NAT-ed without relay: unreachable.
	alone := ids.PeerIDFromSeed(4)
	n.Attach(alone, &stubHandler{}, HostConfig{Reachable: false})
	if _, err := n.FindNode(nil, nil, caller, alone, ids.KeyFromUint64(0)); err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}

	// With relay but relay not registered: relay down.
	n.Attach(nat, &stubHandler{}, HostConfig{Reachable: false, Relay: relay})
	if _, err := n.FindNode(nil, nil, caller, nat, ids.KeyFromUint64(0)); err != ErrRelayDown {
		t.Fatalf("err = %v, want ErrRelayDown", err)
	}

	// Relay online: dial goes through.
	n.Attach(relay, &stubHandler{}, HostConfig{Reachable: true})
	if _, err := n.FindNode(nil, nil, caller, nat, ids.KeyFromUint64(0)); err != nil {
		t.Fatalf("err = %v, want nil via relay", err)
	}

	// Relay offline again: fails.
	n.SetOnline(relay, false)
	if _, err := n.FindNode(nil, nil, caller, nat, ids.KeyFromUint64(0)); err != ErrRelayDown {
		t.Fatalf("err = %v, want ErrRelayDown after relay offline", err)
	}
}

func TestMessageCounters(t *testing.T) {
	a, b := ids.PeerIDFromSeed(1), ids.PeerIDFromSeed(2)
	c := ids.CIDFromSeed(1)
	// script issues five delivered RPCs and one failed dial, which must
	// not count.
	script := func(n *Network, env *Effects) {
		_, _ = n.FindNode(env, nil, a, b, ids.KeyFromUint64(0))
		_, _, _ = n.GetProviders(env, nil, nil, a, b, c)
		_ = n.AddProvider(env, a, b, c, ProviderRecord{})
		_, _ = n.BitswapWant(env, a, b, c)
		_, _ = n.BitswapWant(env, a, b, c)
		_, _ = n.FindNode(env, nil, a, ids.PeerIDFromSeed(9), ids.KeyFromUint64(0))
	}
	network := func() *Network {
		n := New()
		n.Attach(b, quietHandler{}, HostConfig{Reachable: true})
		return n
	}
	check := func(path string, n *Network) {
		t.Helper()
		want := []struct {
			typ MsgType
			n   int64
		}{{MsgFindNode, 1}, {MsgGetProviders, 1}, {MsgAddProvider, 1}, {MsgBitswapWant, 2}}
		for _, w := range want {
			if got := n.MessageCount(w.typ); got != w.n {
				t.Errorf("%s: %v count = %d, want %d", path, w.typ, got, w.n)
			}
		}
		if got := n.TotalMessages(); got != 5 {
			t.Errorf("%s: TotalMessages = %d, want 5", path, got)
		}
	}

	serial := network()
	script(serial, nil)
	check("serial", serial)

	// Through a lane the counts stay on the lane until Fanout merges it.
	lane := network()
	lane.Fanout(2, 1, func(_ int, env *Effects) {
		script(lane, env)
		if got := lane.TotalMessages(); got != 0 {
			t.Errorf("lane: TotalMessages = %d before the merge, want 0", got)
		}
	})
	check("lane", lane)
}

func TestAddrsAndPrimaryIP(t *testing.T) {
	n := New()
	p := ids.PeerIDFromSeed(1)
	relayAddr := maddr.NewCircuit(netip.MustParseAddr("52.0.0.1"), maddr.TCP, 4001, "12D3KooRelay")
	direct := addrOf("91.2.3.4")
	n.Attach(p, &stubHandler{}, HostConfig{Addrs: []maddr.Addr{relayAddr, direct}})

	if got := n.PrimaryIP(p); got != direct.IP {
		t.Errorf("PrimaryIP = %v, want %v (circuit addrs skipped)", got, direct.IP)
	}
	// Addrs shares the host's immutable snapshot with exact capacity:
	// appending to it must reallocate, never scribble on shared memory.
	as := n.Addrs(p)
	_ = append(as, addrOf("1.1.1.1"))
	if got := n.Addrs(p); len(got) != 2 || got[1] != direct {
		t.Error("append to Addrs result corrupted the host's address list")
	}
	// Rotation replaces the slice wholesale; held references keep the
	// pre-rotation snapshot (what concurrent phase readers rely on).
	before := n.Addrs(p)
	n.SetAddrs(p, []maddr.Addr{addrOf("91.9.9.9")})
	if got := n.PrimaryIP(p); got.String() != "91.9.9.9" {
		t.Errorf("PrimaryIP after rotation = %v", got)
	}
	if len(before) != 2 || before[0] != relayAddr {
		t.Error("held snapshot mutated by SetAddrs")
	}
}

func TestPrimaryIPNoDirect(t *testing.T) {
	n := New()
	p := ids.PeerIDFromSeed(1)
	relayAddr := maddr.NewCircuit(netip.MustParseAddr("52.0.0.1"), maddr.TCP, 4001, "12D3KooRelay")
	n.Attach(p, &stubHandler{}, HostConfig{Addrs: []maddr.Addr{relayAddr}})
	if got := n.PrimaryIP(p); got.IsValid() {
		t.Errorf("PrimaryIP of circuit-only peer = %v, want invalid", got)
	}
}

func TestDetach(t *testing.T) {
	n := New()
	p := ids.PeerIDFromSeed(1)
	n.Attach(p, &stubHandler{}, HostConfig{Reachable: true})
	if n.Len() != 1 {
		t.Fatal("attach did not register")
	}
	n.Detach(p)
	if n.Online(p) || n.Len() != 0 {
		t.Fatal("detach did not remove peer")
	}
}

func TestInfoAndPeers(t *testing.T) {
	n := New()
	p := ids.PeerIDFromSeed(1)
	n.Attach(p, &stubHandler{}, HostConfig{Addrs: []maddr.Addr{addrOf("52.1.1.1")}, Reachable: true})
	info := n.Info(p)
	if info.ID != p || len(info.Addrs) != 1 {
		t.Fatalf("Info = %+v", info)
	}
	if n.Len() != 1 {
		t.Fatalf("Len = %d, want 1", n.Len())
	}
}

func TestReachableSemantics(t *testing.T) {
	n := New()
	pub := ids.PeerIDFromSeed(1)
	nat := ids.PeerIDFromSeed(2)
	n.Attach(pub, &stubHandler{}, HostConfig{Reachable: true})
	n.Attach(nat, &stubHandler{}, HostConfig{Reachable: false})
	if !n.Reachable(pub) {
		t.Error("public peer should be reachable")
	}
	if n.Reachable(nat) {
		t.Error("NAT-ed peer should not be reachable")
	}
	n.SetOnline(pub, false)
	if n.Reachable(pub) {
		t.Error("offline peer should not be reachable")
	}
	if n.Reachable(ids.PeerIDFromSeed(99)) {
		t.Error("unknown peer should not be reachable")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgFindNode.String() != "FIND_NODE" || MsgBitswapWant.String() != "BITSWAP_WANT" {
		t.Error("MsgType names wrong")
	}
	if MsgType(42).String() == "" {
		t.Error("unknown MsgType should stringify")
	}
}

func BenchmarkFindNodeRPC(b *testing.B) {
	n := New()
	a, t := ids.PeerIDFromSeed(1), ids.PeerIDFromSeed(2)
	n.Attach(t, &stubHandler{}, HostConfig{Reachable: true})
	target := ids.KeyFromUint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.FindNode(nil, nil, a, t, target)
	}
}
