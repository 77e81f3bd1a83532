package node

import (
	"sort"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
)

// secondsPerDay buckets record expiry instants for incremental pruning.
const secondsPerDay = 24 * 3600

// ProviderStore holds provider records with TTL expiry, as every DHT
// server does for the CIDs it is a resolver for. Records are keyed by
// (CID, provider): a re-advertisement refreshes the existing record.
//
// Storage is columnar: records live in a flat arena keyed by dense
// intern handles (4-byte CIDH/PeerH instead of 32-byte identifiers,
// with a free list for reuse), per-CID slot lists replace the nested
// map-of-maps, and expiry instants are bucketed by day so Expire visits
// only the records whose expiry day has arrived — O(expired), not a
// full-ledger sweep. Provider stores hold the second-largest retained
// population at scale, so the per-record footprint matters.
//
// Concurrency: Put and Expire are serial (driver or lane-merge calls;
// Put may intern). Get/AppendGet/Len/CountFrom are pure reads — they
// never intern and never mutate, so concurrent walk lanes can read
// while the store is quiescent.
type ProviderStore struct {
	ttl netsim.Time
	tab *intern.Tables

	arena []provRec
	free  []int32
	// byCID holds the alive arena slots per CID handle.
	byCID map[intern.CIDH][]int32
	// buckets maps an expiry day to the slots whose records, unless
	// refreshed since, expire on that day. Refreshes re-append under
	// the new day and leave the old entry stale (detected by comparing
	// the record's current expiry day at visit time).
	buckets map[int32][]int32

	// Conservation bookkeeping: created counts distinct (CID, provider)
	// records ever stored (refreshes excluded), pruned counts records
	// removed by Expire. The stored population is always created − pruned
	// — the invariant the property suite checks on every world.
	created int64
	pruned  int64
	// touched counts bucket entries visited by Expire — the regression
	// suite pins it to stay proportional to expiries+refreshes, never
	// to the live population.
	touched int64
}

// provRec is one columnar record: 4-byte handles for the identifiers,
// plus the received time and the provider's advertised addresses (an
// aliased immutable registry snapshot, per the netsim.Addrs contract).
type provRec struct {
	cid      intern.CIDH
	prov     intern.PeerH
	alive    bool
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
	return &ProviderStore{
		ttl:     ttl,
		tab:     tab,
		byCID:   make(map[intern.CIDH][]int32),
		buckets: make(map[int32][]int32),
	}
}

// expDay returns the day bucket the record's expiry instant falls in.
func (s *ProviderStore) expDay(received netsim.Time) int32 {
	return int32((received + s.ttl) / secondsPerDay)
}

// Put stores or refreshes a record. Serial-only (interns).
func (s *ProviderStore) Put(c ids.CID, rec netsim.ProviderRecord) {
	ch := s.tab.CID(c)
	ph := s.tab.Peer(rec.Provider.ID)
	slots := s.byCID[ch]
	for _, sl := range slots {
		r := &s.arena[sl]
		if r.prov == ph {
			// Refresh in place; the stale bucket entry is skipped at
			// visit time because the expiry day moved.
			r.received = rec.Received
			r.addrs = rec.Provider.Addrs
			d := s.expDay(rec.Received)
			s.buckets[d] = append(s.buckets[d], sl)
			return
		}
	}
	nr := provRec{cid: ch, prov: ph, alive: true, received: rec.Received, addrs: rec.Provider.Addrs}
	var sl int32
	if n := len(s.free); n > 0 {
		sl = s.free[n-1]
		s.free = s.free[:n-1]
		s.arena[sl] = nr
	} else {
		sl = int32(len(s.arena))
		s.arena = append(s.arena, nr)
	}
	s.byCID[ch] = append(slots, sl)
	d := s.expDay(rec.Received)
	s.buckets[d] = append(s.buckets[d], sl)
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
	slots := s.byCID[ch]
	if len(slots) == 0 {
		return dst
	}
	start := len(dst)
	for _, sl := range slots {
		r := &s.arena[sl]
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

// Expire prunes every expired record by visiting only the day buckets
// whose day has arrived: entries refreshed since insertion are detected
// by their moved expiry day and skipped; same-day entries not yet past
// their expiry instant are retained for a later call. Serial-only.
func (s *ProviderStore) Expire(now netsim.Time) {
	nowDay := int32(now / secondsPerDay)
	var days []int32
	for d := range s.buckets {
		if d <= nowDay {
			days = append(days, d)
		}
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	for _, d := range days {
		entries := s.buckets[d]
		keep := entries[:0]
		for _, sl := range entries {
			s.touched++
			r := &s.arena[sl]
			if !r.alive || s.expDay(r.received) != d {
				continue // freed or refreshed: a live entry exists elsewhere
			}
			if now-r.received >= s.ttl {
				s.remove(sl, r)
				s.pruned++
			} else {
				// Only reachable for d == nowDay: expiry later today.
				keep = append(keep, sl)
			}
		}
		if len(keep) == 0 {
			delete(s.buckets, d)
		} else {
			s.buckets[d] = keep
		}
	}
}

// remove frees an arena slot and unlinks it from its per-CID list.
func (s *ProviderStore) remove(sl int32, r *provRec) {
	r.alive = false
	r.addrs = nil
	slots := s.byCID[r.cid]
	for i, v := range slots {
		if v == sl {
			slots[i] = slots[len(slots)-1]
			slots = slots[:len(slots)-1]
			break
		}
	}
	if len(slots) == 0 {
		delete(s.byCID, r.cid)
	} else {
		s.byCID[r.cid] = slots
	}
	s.free = append(s.free, sl)
}

// CountFrom counts the unexpired records at time now whose provider is
// p. Pure read; the attack invariants use it to census spam records.
func (s *ProviderStore) CountFrom(p ids.PeerID, now netsim.Time) int {
	ph, ok := s.tab.Peers.Lookup(p)
	if !ok {
		return 0
	}
	total := 0
	for i := range s.arena {
		r := &s.arena[i]
		if r.alive && r.prov == ph && now-r.received < s.ttl {
			total++
		}
	}
	return total
}

// Stats returns the conservation ledger: Stored == Created − Pruned
// always holds (the property suite asserts it across whole worlds).
func (s *ProviderStore) Stats() ProviderStats {
	return ProviderStats{Created: s.created, Pruned: s.pruned, Stored: s.created - s.pruned}
}
