// Package ipns implements the InterPlanetary Name System record layer —
// the mechanism footnote 5 of the paper mentions as "one more way of
// mapping human-readable names to CIDs": a mutable, signed pointer from
// a key-pair-derived name to an IPFS path, republished periodically and
// resolved by picking the valid record with the highest sequence number.
//
// A DNSLink entry of the form dnslink=/ipns/<key> names such a record,
// and the CID it resolves to is fetched like any other content — which
// is why the paper skips measuring IPNS separately. internal/dnslink
// only parses /ipns/ entries and never resolves them through this
// package; the package completes the ecosystem model, and
// examples/futureweb drives its publish, republish and resolve paths.
package ipns

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// DefaultValidity is how long a record stays valid (48h in kubo).
const DefaultValidity netsim.Time = 48 * 3600

// Name is an IPNS name: the hash of the publisher's public key.
type Name struct {
	k ids.Key
}

// NameFromSeed derives a deterministic name for scenario generation.
func NameFromSeed(seed uint64) Name {
	var buf [12]byte
	copy(buf[:4], "ipns")
	binary.BigEndian.PutUint64(buf[4:], seed)
	return Name{k: ids.KeyFromBytes(buf[:])}
}

// NameFromPeer derives the IPNS name owned by a peer (peers publish
// under the hash of their own public key).
func NameFromPeer(p ids.PeerID) Name { return Name{k: p.Key()} }

// Key returns the keyspace point of the name (where DHT records for it
// would live).
func (n Name) Key() ids.Key { return n.k }

// String renders the canonical k51…-style text form.
func (n Name) String() string { return "k51" + hex.EncodeToString(n.k[:12]) }

// Record is a signed name→value mapping.
type Record struct {
	Name Name
	// Value is the CID the name currently points at.
	Value ids.CID
	// Sequence increases with every update; resolvers prefer the
	// highest valid sequence.
	Sequence uint64
	// Created is the publication time; the record expires at
	// Created+Validity.
	Created netsim.Time
	// Validity is the record lifetime (DefaultValidity if zero at
	// publish time).
	Validity netsim.Time
	// Signature binds (name, value, sequence); the simulator's scheme is
	// a keyed hash standing in for an Ed25519 signature.
	Signature [32]byte
}

// sign computes the stand-in signature. The "private key" is the name's
// key material itself — sufficient for the integrity property the
// simulation needs (records cannot be forged without the name's seed).
func sign(name Name, value ids.CID, seq uint64) [32]byte {
	var buf []byte
	nk, vk := name.Key(), value.Key()
	buf = append(buf, nk[:]...)
	buf = append(buf, vk[:]...)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	buf = append(buf, s[:]...)
	return sha256.Sum256(buf)
}

// NewRecord creates a signed record.
func NewRecord(name Name, value ids.CID, seq uint64, now netsim.Time) Record {
	return Record{
		Name:      name,
		Value:     value,
		Sequence:  seq,
		Created:   now,
		Validity:  DefaultValidity,
		Signature: sign(name, value, seq),
	}
}

// Verify checks the signature and temporal validity of a record.
func (r Record) Verify(now netsim.Time) error {
	if r.Signature != sign(r.Name, r.Value, r.Sequence) {
		return fmt.Errorf("ipns: bad signature for %s", r.Name)
	}
	validity := r.Validity
	if validity <= 0 {
		validity = DefaultValidity
	}
	if now-r.Created >= validity {
		return fmt.Errorf("ipns: record for %s expired", r.Name)
	}
	return nil
}

// Better reports whether r should replace prev under the IPNS validator
// rules: higher sequence wins; at equal sequence the fresher record wins.
func (r Record) Better(prev Record) bool {
	if r.Sequence != prev.Sequence {
		return r.Sequence > prev.Sequence
	}
	return r.Created > prev.Created
}

// Registry is the name-resolution layer: a store of the best known
// record per name, as the DHT's /ipns/ keyspace (or the delegated
// routers that replaced it) would hold. The clock is supplied per call
// so the registry composes with any time source.
type Registry struct {
	best map[Name]Record
	// Publishes and Resolves count operations for traffic accounting.
	Publishes int64
	Resolves  int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{best: make(map[Name]Record)}
}

// Publish validates a record and stores it if it beats the current best.
// It returns an error for invalid records and false (no error) for valid
// records that lose to a newer stored one.
func (g *Registry) Publish(r Record, now netsim.Time) (bool, error) {
	if err := r.Verify(now); err != nil {
		return false, err
	}
	g.Publishes++
	prev, ok := g.best[r.Name]
	if ok && !r.Better(prev) {
		return false, nil
	}
	g.best[r.Name] = r
	return true, nil
}

// Resolve returns the current CID for a name, failing for unknown names
// and expired records (the owner stopped republishing).
func (g *Registry) Resolve(name Name, now netsim.Time) (ids.CID, error) {
	g.Resolves++
	r, ok := g.best[name]
	if !ok {
		return ids.CID{}, fmt.Errorf("ipns: no record for %s", name)
	}
	if err := r.Verify(now); err != nil {
		return ids.CID{}, err
	}
	return r.Value, nil
}

// Names returns the number of names with a stored record (expired or
// not).
func (g *Registry) Names() int { return len(g.best) }

// Publisher owns a name and republishes it on schedule, the way kubo's
// IPNS republisher keeps records alive.
type Publisher struct {
	name Name
	seq  uint64
	cur  ids.CID
}

// NewPublisher creates a publisher for the name derived from seed.
func NewPublisher(seed uint64) *Publisher {
	return &Publisher{name: NameFromSeed(seed)}
}

// Name returns the published name.
func (p *Publisher) Name() Name { return p.name }

// Update points the name at a new CID (bumping the sequence) and
// publishes the record.
func (p *Publisher) Update(g *Registry, value ids.CID, now netsim.Time) error {
	p.seq++
	p.cur = value
	_, err := g.Publish(NewRecord(p.name, value, p.seq, now), now)
	return err
}

// Republish re-signs and republishes the current value without changing
// it (same sequence semantics as kubo: sequence only bumps on change, so
// republishing refreshes Created at the same sequence).
func (p *Publisher) Republish(g *Registry, now netsim.Time) error {
	if p.seq == 0 {
		return fmt.Errorf("ipns: nothing published yet for %s", p.name)
	}
	_, err := g.Publish(NewRecord(p.name, p.cur, p.seq, now), now)
	return err
}
