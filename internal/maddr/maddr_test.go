package maddr

import (
	"net/netip"
	"testing"
)

// TestString pins the canonical rendering of every address shape the
// simulation builds: ip4/ip6 × tcp/udp/quic-v1, with and without a
// /p2p component, and circuit-relay addresses.
func TestString(t *testing.T) {
	v4 := netip.MustParseAddr("1.10.20.30")
	cases := []struct {
		a    Addr
		want string
	}{
		{New(v4, TCP, 29087), "/ip4/1.10.20.30/tcp/29087"},
		{Addr{IP: v4, Port: 29087, Transport: TCP, PeerID: "12D3KooAbc"}, "/ip4/1.10.20.30/tcp/29087/p2p/12D3KooAbc"},
		{New(netip.MustParseAddr("2001:db8::1"), TCP, 4001), "/ip6/2001:db8::1/tcp/4001"},
		{New(netip.MustParseAddr("5.6.7.8"), UDP, 0), "/ip4/5.6.7.8/udp/0"},
		{New(netip.MustParseAddr("5.6.7.8"), QUIC, 4001), "/ip4/5.6.7.8/udp/4001/quic-v1"},
		{NewCircuit(netip.MustParseAddr("52.1.2.3"), TCP, 4001, "12D3KooRelay"), "/ip4/52.1.2.3/tcp/4001/p2p/12D3KooRelay/p2p-circuit"},
		{NewCircuit(netip.MustParseAddr("52.1.2.3"), QUIC, 4001, "12D3KooRelay"), "/ip4/52.1.2.3/udp/4001/quic-v1/p2p/12D3KooRelay/p2p-circuit"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.a, got, c.want)
		}
	}
}

func TestIsLocal(t *testing.T) {
	local := []string{"127.0.0.1", "10.0.0.5", "192.168.1.2", "0.0.0.0", "::1"}
	for _, s := range local {
		if !New(netip.MustParseAddr(s), TCP, 4001).IsLocal() {
			t.Errorf("%q should be local", s)
		}
	}
	if New(netip.MustParseAddr("52.1.2.3"), TCP, 4001).IsLocal() {
		t.Error("public address flagged local")
	}
}

func TestNewCircuitHelpers(t *testing.T) {
	relay := netip.MustParseAddr("52.9.9.9")
	a := NewCircuit(relay, TCP, 4001, "12D3KooRelay")
	if !a.Circuit || a.IP != relay || a.PeerID != "12D3KooRelay" {
		t.Errorf("NewCircuit = %+v", a)
	}
	d := New(netip.MustParseAddr("8.8.8.8"), TCP, 1234)
	if d.Circuit || d.PeerID != "" || d.Port != 1234 {
		t.Errorf("New = %+v", d)
	}
}

func BenchmarkString(b *testing.B) {
	a := NewCircuit(netip.MustParseAddr("52.1.2.3"), TCP, 4001, "12D3KooRelay")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.String()
	}
}
