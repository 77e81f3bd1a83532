// Package maddr models the subset of the multiaddr format that IPFS
// provider records and peer advertisements use: plain IP transport
// addresses (/ip4/…/tcp/…, /ip6/…/udp/…), peer-qualified addresses
// (…/p2p/<peerID>) and circuit-relay addresses
// (/ip4/<relayIP>/tcp/<port>/p2p/<relayID>/p2p-circuit), which NAT-ed
// providers advertise so downloads can be reverse-proxied through a relay.
// The simulation carries structured Addr values and no binary reads a
// multiaddr string, so the package has no text grammar: String renders
// the canonical form, and nothing parses it back.
//
// The paper's provider analysis (Section 6) hinges on exactly these
// distinctions: a provider whose multiaddrs are all circuit addresses is a
// NAT-ed peer, and the relay's IP decides whether its reachability depends
// on cloud infrastructure.
package maddr

import (
	"net/netip"
	"strconv"
	"strings"
)

// Transport is the transport protocol component of an address.
type Transport string

// Supported transports. IPFS nodes commonly advertise both; for the
// purposes of this study they are interchangeable labels.
const (
	TCP  Transport = "tcp"
	UDP  Transport = "udp"
	QUIC Transport = "quic-v1"
)

// Addr is a multiaddr. The zero Addr has no IP; construct values with
// New or NewCircuit.
type Addr struct {
	// IP is the network address: the node's own IP for direct addresses,
	// the relay's IP for circuit addresses.
	IP netip.Addr
	// Port is the transport port at IP.
	Port uint16
	// Transport is the transport protocol at IP.
	Transport Transport
	// PeerID is the string form of the peer the address points at: the
	// node itself for direct addresses, the relay for circuit addresses
	// (empty if the address carries no /p2p component).
	PeerID string
	// Circuit marks a relay (p2p-circuit) address.
	Circuit bool
}

// New builds a direct transport address.
func New(ip netip.Addr, tr Transport, port uint16) Addr {
	return Addr{IP: ip, Port: port, Transport: tr}
}

// NewCircuit builds a circuit-relay address: connections to the advertising
// peer are proxied through the relay at relayIP:relayPort.
func NewCircuit(relayIP netip.Addr, tr Transport, relayPort uint16, relayID string) Addr {
	return Addr{IP: relayIP, Port: relayPort, Transport: tr, PeerID: relayID, Circuit: true}
}

// IsLocal reports whether the address points at loopback, link-local,
// unspecified or private space — addresses the crawler discards, mirroring
// the paper's "non-local IP addresses" accounting.
func (a Addr) IsLocal() bool {
	ip := a.IP
	return ip.IsLoopback() || ip.IsLinkLocalUnicast() || ip.IsLinkLocalMulticast() ||
		ip.IsUnspecified() || ip.IsPrivate()
}

// String renders the address in canonical multiaddr form.
func (a Addr) String() string {
	var sb strings.Builder
	if a.IP.Is4() {
		sb.WriteString("/ip4/")
	} else {
		sb.WriteString("/ip6/")
	}
	sb.WriteString(a.IP.String())
	sb.WriteByte('/')
	// QUIC runs over UDP; the canonical form includes the udp component.
	if a.Transport == QUIC {
		sb.WriteString("udp/")
		sb.WriteString(strconv.Itoa(int(a.Port)))
		sb.WriteString("/quic-v1")
	} else {
		sb.WriteString(string(a.Transport))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(int(a.Port)))
	}
	if a.PeerID != "" {
		sb.WriteString("/p2p/")
		sb.WriteString(a.PeerID)
	}
	if a.Circuit {
		sb.WriteString("/p2p-circuit")
	}
	return sb.String()
}
