// Package netsim is the deterministic, in-memory network underlying the
// whole reproduction: it stands in for the live IPFS overlay the paper
// measures.
//
// The simulator models what the paper's measurement tools can observe:
//
//   - peers registered under their peer IDs, each advertising multiaddrs;
//   - reachability: publicly dialable DHT servers vs NAT-ed DHT clients
//     that accept inbound connections only through a circuit relay;
//   - liveness (churn): peers go online/offline under a session model
//     driven by the scenario;
//   - the four protocol RPCs that matter for the study — FindNode,
//     GetProviders, AddProvider (DHT) and Want (Bitswap) — delivered
//     synchronously under a virtual clock.
//
// Time comes in two layers. The virtual clock is advanced explicitly by
// drivers, giving every logged event a deterministic timestamp. On top
// of it, an optional per-link impairment model (link.go) charges each
// delivered RPC a deterministic delay draw — keyed by the endpoints'
// rate classes (cloud vs residential) — and may drop it outright
// (ErrLinkLoss), which is what makes the paper's latency figures
// (gateway probe response times, crawl durations) reproducible. The
// model's draws are hash streams over (seed, lane, sequence), so the
// byte-identical worker-determinism contract holds with it enabled; the
// zero profile is the exact identity. Message counts are tracked per
// RPC type so experiments can report protocol mix (57% downloads / 40%
// advertisements in the paper's Hydra logs).
package netsim

import (
	"errors"
	"fmt"
	"net/netip"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/maddr"
)

// Time is a virtual-clock timestamp in seconds since the simulation epoch.
type Time = int64

// Clock is the simulation's source of time. Drivers advance it; all
// components read it. The zero Clock starts at the epoch.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d seconds. It panics on negative d:
// simulated time never rewinds.
func (c *Clock) Advance(d Time) {
	if d < 0 {
		panic("netsim: clock cannot rewind")
	}
	c.now += d
}

// PeerInfo is the wire representation of a peer: its ID and advertised
// addresses. It is what FindNode responses and provider records carry.
type PeerInfo struct {
	ID    ids.PeerID
	Addrs []maddr.Addr
}

// ProviderRecord maps a CID to a provider's connectivity information, as
// stored on the CID's resolvers. Expiry is handled by the storing node.
type ProviderRecord struct {
	Provider PeerInfo
	// Received is when the storing node accepted the record.
	Received Time
}

// Handler is the protocol surface a peer exposes to the network. Node,
// the Hydra booster and the Bitswap monitor all implement it.
//
// Every method receives the caller's Effects lane. Handlers must route
// all state mutations (routing-table learns, record stores, observation
// streams, queue pushes) through env.Defer or a per-lane sink and keep
// the computed response a pure function of pre-phase state; env is nil
// in serial (immediate) mode, where Defer applies on the spot.
//
// Closer-peer responses are append-style: the handler appends peer IDs
// onto the caller-supplied slice and returns it (like append, the
// result may alias the argument's storage). Responses carry IDs only —
// address resolution goes through the registry (Info), which is also
// the only place the simulator's analyses ever consume addresses from —
// so the hottest RPCs reuse the caller's buffers instead of allocating
// a contact list per response.
type Handler interface {
	// HandleFindNode answers a DHT FindNode: the K closest contacts to
	// target from the peer's routing table, appended to closer. DHT
	// clients return closer unchanged.
	HandleFindNode(env *Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID
	// HandleGetProviders answers a DHT GetProviders: any provider records
	// held for c (appended to recs), plus the K closest contacts to c's
	// key (appended to closer).
	HandleGetProviders(env *Effects, from ids.PeerID, c ids.CID, recs []ProviderRecord, closer []ids.PeerID) ([]ProviderRecord, []ids.PeerID)
	// HandleAddProvider ingests a provider record for c.
	HandleAddProvider(env *Effects, from ids.PeerID, c ids.CID, rec ProviderRecord)
	// HandleBitswapWant answers a Bitswap WANT(c): whether the peer has
	// the block.
	HandleBitswapWant(env *Effects, from ids.PeerID, c ids.CID) bool
}

// MsgType labels RPCs for traffic accounting.
type MsgType int

// RPC types. The DHT types map onto the paper's traffic classification:
// GetProviders is download-related, AddProvider is advertisement-related,
// FindNode is "other" (routing/joining).
const (
	MsgFindNode MsgType = iota
	MsgGetProviders
	MsgAddProvider
	MsgBitswapWant
	msgTypeCount
)

// String returns the RPC name.
func (m MsgType) String() string {
	switch m {
	case MsgFindNode:
		return "FIND_NODE"
	case MsgGetProviders:
		return "GET_PROVIDERS"
	case MsgAddProvider:
		return "ADD_PROVIDER"
	case MsgBitswapWant:
		return "BITSWAP_WANT"
	}
	return fmt.Sprintf("MsgType(%d)", int(m))
}

// Errors returned by dialing.
var (
	ErrUnknownPeer   = errors.New("netsim: unknown peer")
	ErrOffline       = errors.New("netsim: peer offline")
	ErrUnreachable   = errors.New("netsim: peer not dialable (NAT without relay path)")
	ErrRelayDown     = errors.New("netsim: relay offline")
	ErrNotRegistered = errors.New("netsim: peer has no handler")
	ErrLinkLoss      = errors.New("netsim: message lost on link")
)

// hostRecord is the simulator's registry entry for one peer.
type hostRecord struct {
	handler Handler
	addrs   []maddr.Addr
	online  bool
	// reachable means publicly dialable: a DHT-server-capable host.
	reachable bool
	// relay is the circuit relay for NAT-ed hosts (zero if none).
	relay ids.PeerID
	// sourceIP is the outbound source address for NAT-ed hosts.
	sourceIP netip.Addr
	// linkClass is the peer's rate class for the link impairment model.
	linkClass LinkClass
}

// Network is the simulated overlay. Mutating methods (Attach, Detach,
// SetOnline, …) are single-threaded: drivers call them between phases.
// During a Fanout phase, concurrent goroutines may issue RPCs through
// per-lane Effects buffers — handlers defer their writes and the merge
// replays them in lane order, keeping every run (and every worker
// count) byte-identical. See phase.go.
type Network struct {
	Clock Clock
	// Intern holds the world's dense identifier handle tables. The
	// network owns them because it is the one component every other
	// component already reaches: peers and their addresses intern at
	// Attach/SetAddrs (driver-serial), CIDs at the scenario's mint
	// points, stray identifiers lazily at trace.Accum.Observe (also
	// serial). Parallel phases only read. See package intern.
	Intern   *intern.Tables
	hosts    map[ids.PeerID]*hostRecord
	msgCount [msgTypeCount]int64
	// lanePool holds reusable Effects lanes for Fanout phases (driver-
	// serial; lane buffers and scratch survive across phases).
	lanePool []*Effects

	// Link impairment model (link.go). linkZero caches IsZero so the
	// identity profile costs one branch per RPC; linkSerialSeq numbers
	// the serial-mode draw stream; the counters are lifetime totals
	// (lane counters merge into them at Apply, in lane order).
	link          LinkProfile
	linkZero      bool
	linkSeed      uint64
	linkSerialSeq uint64
	linkIssued    int64
	linkDropped   int64
	linkDelivered int64
	linkElapsedUS int64
}

// New creates an empty network with the identity link profile.
func New() *Network {
	return &Network{
		Intern:   intern.NewTables(),
		hosts:    make(map[ids.PeerID]*hostRecord),
		linkZero: true,
	}
}

// HostConfig describes a peer being attached to the network.
type HostConfig struct {
	// Addrs are the peer's advertised multiaddrs.
	Addrs []maddr.Addr
	// Reachable marks the peer publicly dialable. Unreachable peers can
	// only accept inbound connections through their relay.
	Reachable bool
	// Relay is the circuit relay peer for NAT-ed hosts; ignored when
	// Reachable.
	Relay ids.PeerID
	// SourceIP is the address a NAT-ed host's *outbound* connections
	// appear to come from (its NAT's public side). Monitors log this for
	// direct requests; the relay's address appears only for relayed
	// inbound traffic.
	SourceIP netip.Addr
	// LinkClass is the peer's rate class for the link impairment model
	// (zero value: LinkCloud).
	LinkClass LinkClass
}

// Attach registers a handler under the peer ID. The peer starts online.
// Attaching an already-known ID replaces its record, which is how nodes
// re-join after regenerating state.
func (n *Network) Attach(id ids.PeerID, h Handler, cfg HostConfig) {
	n.Intern.Peer(id)
	n.internAddrs(cfg.Addrs)
	if cfg.SourceIP.IsValid() {
		n.Intern.Addr(cfg.SourceIP)
	}
	n.hosts[id] = &hostRecord{
		handler:   h,
		addrs:     exactCopy(cfg.Addrs),
		online:    true,
		reachable: cfg.Reachable,
		relay:     cfg.Relay,
		sourceIP:  cfg.SourceIP,
		linkClass: cfg.LinkClass,
	}
}

// exactCopy clones an address list with cap == len. Host address slices
// are handed out by Addrs/Info without further copying (the simulator's
// hottest allocation site otherwise), so they must be immutable: writes
// replace the whole slice, and the exact capacity guarantees any append
// a holder performs reallocates instead of scribbling on shared memory.
func exactCopy(addrs []maddr.Addr) []maddr.Addr {
	if len(addrs) == 0 {
		return nil
	}
	out := make([]maddr.Addr, len(addrs))
	copy(out, addrs)
	return out
}

// Detach removes a peer entirely (e.g. a node that left and regenerated
// its identity).
func (n *Network) Detach(id ids.PeerID) {
	delete(n.hosts, id)
}

// SetOnline flips a peer's liveness; offline peers refuse all dials.
func (n *Network) SetOnline(id ids.PeerID, online bool) {
	if h, ok := n.hosts[id]; ok {
		h.online = online
	}
}

// SetAddrs replaces a peer's advertised addresses (IP rotation). The
// previous slice is left intact for any holder that aliased it.
func (n *Network) SetAddrs(id ids.PeerID, addrs []maddr.Addr) {
	if h, ok := n.hosts[id]; ok {
		n.internAddrs(addrs)
		h.addrs = exactCopy(addrs)
	}
}

// internAddrs interns every valid IP of an address list (driver-serial,
// called from the registry's mutating methods only).
func (n *Network) internAddrs(addrs []maddr.Addr) {
	for _, a := range addrs {
		if a.IP.IsValid() {
			n.Intern.Addr(a.IP)
		}
	}
}

// Online reports whether the peer exists and is online.
func (n *Network) Online(id ids.PeerID) bool {
	h, ok := n.hosts[id]
	return ok && h.online
}

// Reachable reports whether the peer is online and publicly dialable.
func (n *Network) Reachable(id ids.PeerID) bool {
	h, ok := n.hosts[id]
	return ok && h.online && h.reachable
}

// Relay returns the configured relay for a peer (zero PeerID if none).
func (n *Network) Relay(id ids.PeerID) ids.PeerID {
	if h, ok := n.hosts[id]; ok {
		return h.relay
	}
	return ids.PeerID{}
}

// Addrs returns the peer's advertised addresses (nil for unknown peers).
// The returned slice is shared and must be treated as immutable; it has
// no spare capacity, so appending to it is safe (reallocates). Address
// updates swap in a fresh slice, leaving held references to the old
// snapshot valid — which is also what makes concurrent phase reads safe.
func (n *Network) Addrs(id ids.PeerID) []maddr.Addr {
	if h, ok := n.hosts[id]; ok {
		return h.addrs
	}
	return nil
}

// Info returns the peer's PeerInfo as other peers would learn it.
func (n *Network) Info(id ids.PeerID) PeerInfo {
	return PeerInfo{ID: id, Addrs: n.Addrs(id)}
}

// PrimaryIP returns the first advertised non-circuit IP of the peer, or
// the zero Addr if it has none. Analysis code uses it as "the" IP when a
// single value is needed.
func (n *Network) PrimaryIP(id ids.PeerID) netip.Addr {
	for _, a := range n.Addrs(id) {
		if !a.Circuit && a.IP.IsValid() {
			return a.IP
		}
	}
	return netip.Addr{}
}

// ObservedAddr returns the source IP a remote monitor would see for
// traffic from this peer: its own primary IP when publicly reachable, or
// the relay's primary IP when the peer is NAT-ed, proxied and has no
// known source address. This mirrors the paper's note that Hydra logs
// record the proxy DHT server for NAT-traversing senders.
func (n *Network) ObservedAddr(id ids.PeerID) netip.Addr {
	h, ok := n.hosts[id]
	if !ok {
		return netip.Addr{}
	}
	if h.reachable {
		return n.PrimaryIP(id)
	}
	// NAT-ed host making an outbound connection: the monitor sees its
	// NAT's public address when known.
	if h.sourceIP.IsValid() {
		return h.sourceIP
	}
	if !h.relay.IsZero() {
		return n.PrimaryIP(h.relay)
	}
	// NAT-ed without a relay: outbound connections still expose the
	// peer's own address if a direct one is advertised.
	for _, a := range h.addrs {
		if !a.Circuit && a.IP.IsValid() {
			return a.IP
		}
	}
	return netip.Addr{}
}

// dial resolves the target handler, enforcing the reachability rules:
//   - the target must exist and be online;
//   - if the target is NAT-ed, the dial succeeds only through its relay,
//     which must itself be online (circuit relaying).
func (n *Network) dial(to ids.PeerID) (*hostRecord, error) {
	h, ok := n.hosts[to]
	if !ok {
		return nil, ErrUnknownPeer
	}
	if !h.online {
		return nil, ErrOffline
	}
	if !h.reachable {
		if h.relay.IsZero() {
			return nil, ErrUnreachable
		}
		r, ok := n.hosts[h.relay]
		if !ok || !r.online {
			return nil, ErrRelayDown
		}
	}
	if h.handler == nil {
		return nil, ErrNotRegistered
	}
	return h, nil
}

// FindNode performs a FindNode RPC from `from` to `to`. The response is
// appended to closer and returned (append-style: pass a reusable buffer
// sliced to length 0 to avoid a per-RPC allocation).
func (n *Network) FindNode(env *Effects, closer []ids.PeerID, from, to ids.PeerID, target ids.Key) ([]ids.PeerID, error) {
	h, err := n.dial(to)
	if err != nil {
		return closer, err
	}
	if err := n.impair(env, from, h); err != nil {
		return closer, err
	}
	n.count(env, MsgFindNode)
	return h.handler.HandleFindNode(env, from, target, closer), nil
}

// GetProviders performs a GetProviders RPC, with the record and
// closer-peer responses appended to the caller's buffers (append-style,
// like FindNode).
func (n *Network) GetProviders(env *Effects, recs []ProviderRecord, closer []ids.PeerID, from, to ids.PeerID, c ids.CID) ([]ProviderRecord, []ids.PeerID, error) {
	h, err := n.dial(to)
	if err != nil {
		return recs, closer, err
	}
	if err := n.impair(env, from, h); err != nil {
		return recs, closer, err
	}
	n.count(env, MsgGetProviders)
	recs, closer = h.handler.HandleGetProviders(env, from, c, recs, closer)
	return recs, closer, nil
}

// AddProvider performs an AddProvider RPC.
func (n *Network) AddProvider(env *Effects, from, to ids.PeerID, c ids.CID, rec ProviderRecord) error {
	h, err := n.dial(to)
	if err != nil {
		return err
	}
	if err := n.impair(env, from, h); err != nil {
		return err
	}
	n.count(env, MsgAddProvider)
	h.handler.HandleAddProvider(env, from, c, rec)
	return nil
}

// BitswapWant performs a Bitswap WANT RPC, returning whether the target
// has the block.
func (n *Network) BitswapWant(env *Effects, from, to ids.PeerID, c ids.CID) (bool, error) {
	h, err := n.dial(to)
	if err != nil {
		return false, err
	}
	if err := n.impair(env, from, h); err != nil {
		return false, err
	}
	n.count(env, MsgBitswapWant)
	return h.handler.HandleBitswapWant(env, from, c), nil
}

// TotalMessages returns the total RPCs delivered across all types.
func (n *Network) TotalMessages() int64 {
	var sum int64
	for _, c := range n.msgCount {
		sum += c
	}
	return sum
}
