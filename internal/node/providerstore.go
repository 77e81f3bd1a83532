package node

import (
	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
)

// ProviderStore holds provider records with TTL expiry, as every DHT
// server does for the CIDs it is a resolver for. Records are keyed by
// (CID, provider): a re-advertisement refreshes the existing record.
//
// Storage is one record list per CID, keyed by the CID's dense intern
// handle; a record names its provider by a 4-byte PeerH instead of the
// 32-byte identifier. Provider stores hold the second-largest retained
// population at scale, so the per-record footprint matters. Expire
// sweeps every record: the scenario sweeps once a day and the TTL is at
// most 36 h, so a put is followed by at most three sweeps (two under
// the 24 h Hydra TTL) before its record is refreshed or pruned, and the
// sweeps cost a small multiple of the put volume, never population ×
// days.
//
// Concurrency: Put and Expire are serial (driver or lane-merge calls;
// Put may intern). Get/AppendGet/CountFrom are pure reads — they never
// intern and never mutate, so concurrent walk lanes can read while the
// store is quiescent.
type ProviderStore struct {
	ttl netsim.Time
	tab *intern.Tables

	byCID map[intern.CIDH][]provRec

	// Conservation bookkeeping: created counts distinct (CID, provider)
	// records ever stored (refreshes excluded), pruned counts records
	// removed by Expire. The stored population is always created − pruned
	// — the invariant the property suite checks on every world.
	created int64
	pruned  int64
	// touched counts records visited by Expire; the regression suite
	// pins it to stay proportional to the put volume.
	touched int64
}

// provRec is one stored record: the provider's handle, the received
// time and the provider's advertised addresses (an aliased immutable
// registry snapshot, per the netsim.Addrs contract).
type provRec struct {
	prov     intern.PeerH
	received netsim.Time
	addrs    []maddr.Addr
}

// ProviderStats is the store's conservation ledger.
type ProviderStats struct {
	// Created is the number of distinct (CID, provider) records ever
	// stored; a re-advertisement refreshes in place and does not count.
	Created int64
	// Pruned is the number of records removed by Expire.
	Pruned int64
	// Stored is the current record population, expired-but-unpruned
	// entries included.
	Stored int64
}

// NewProviderStore creates a store with the given record TTL over the
// given handle tables; every store of one world shares the world's
// tables, so they all resolve the same dense handles.
func NewProviderStore(ttl netsim.Time, tab *intern.Tables) *ProviderStore {
	if ttl <= 0 {
		panic("node: provider TTL must be positive")
	}
	return &ProviderStore{ttl: ttl, tab: tab, byCID: make(map[intern.CIDH][]provRec)}
}

// Put stores or refreshes a record. Serial-only (interns).
func (s *ProviderStore) Put(c ids.CID, rec netsim.ProviderRecord) {
	ch := s.tab.CID(c)
	ph := s.tab.Peer(rec.Provider.ID)
	recs := s.byCID[ch]
	for i := range recs {
		if recs[i].prov == ph {
			recs[i].received = rec.Received
			recs[i].addrs = rec.Provider.Addrs
			return
		}
	}
	s.byCID[ch] = append(recs, provRec{prov: ph, received: rec.Received, addrs: rec.Provider.Addrs})
	s.created++
}

// Get returns the unexpired records for c at time now. It is a pure
// read — expired entries are filtered from the result but pruned only by
// Expire — so concurrent lookups from parallel walk lanes never mutate
// the store. Order is deterministic (ascending provider key).
func (s *ProviderStore) Get(c ids.CID, now netsim.Time) []netsim.ProviderRecord {
	ch, ok := s.tab.CIDs.Lookup(c)
	if !ok || len(s.byCID[ch]) == 0 {
		return nil
	}
	return s.AppendGet(nil, c, now)
}

// AppendGet is Get appending onto dst (append-style): the RPC handlers
// use it with the caller's reusable response buffer, so answering
// GetProviders allocates nothing. Appended records are sorted by
// provider key among themselves.
func (s *ProviderStore) AppendGet(dst []netsim.ProviderRecord, c ids.CID, now netsim.Time) []netsim.ProviderRecord {
	ch, ok := s.tab.CIDs.Lookup(c)
	if !ok {
		return dst
	}
	start := len(dst)
	recs := s.byCID[ch]
	for i := range recs {
		r := &recs[i]
		if now-r.received >= s.ttl {
			continue
		}
		dst = append(dst, netsim.ProviderRecord{
			Provider: netsim.PeerInfo{ID: s.tab.Peers.Value(r.prov), Addrs: r.addrs},
			Received: r.received,
		})
	}
	// Deterministic ordering for the single-threaded simulator.
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Provider.ID.Key().Cmp(out[j-1].Provider.ID.Key()) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

// Expire prunes every expired record. Serial-only.
func (s *ProviderStore) Expire(now netsim.Time) {
	for ch, recs := range s.byCID {
		s.touched += int64(len(recs))
		keep := recs[:0]
		for _, r := range recs {
			if now-r.received < s.ttl {
				keep = append(keep, r)
			}
		}
		s.pruned += int64(len(recs) - len(keep))
		switch {
		case len(keep) == 0:
			delete(s.byCID, ch)
		case len(keep) < len(recs):
			// Zero the dropped tail so its address slices can be collected.
			clear(recs[len(keep):])
			s.byCID[ch] = keep
		}
	}
}

// CountFrom counts the unexpired records at time now whose provider is
// p. Pure read; the attack invariants use it to census spam records.
func (s *ProviderStore) CountFrom(p ids.PeerID, now netsim.Time) int {
	ph, ok := s.tab.Peers.Lookup(p)
	if !ok {
		return 0
	}
	total := 0
	for _, recs := range s.byCID {
		for i := range recs {
			if recs[i].prov == ph && now-recs[i].received < s.ttl {
				total++
			}
		}
	}
	return total
}

// Stats returns the conservation ledger: Stored == Created − Pruned
// always holds (the property suite asserts it across whole worlds).
func (s *ProviderStore) Stats() ProviderStats {
	return ProviderStats{Created: s.created, Pruned: s.pruned, Stored: s.created - s.pruned}
}
