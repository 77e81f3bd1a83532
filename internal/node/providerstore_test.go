package node

import (
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/netsim"
)

// TestProviderStoreExpiryAtDayBoundaries pins the store's behaviour at
// the exact edges of the TTL window, in the units the scenario uses (a
// 24h TTL, 1h ticks, daily Expire sweeps). The contract under test:
// a record is live strictly before Received+TTL, dead at exactly
// Received+TTL, and dead ever after — identically through the pure
// read path (Get/Len) and the pruning path (Expire).
func TestProviderStoreExpiryAtDayBoundaries(t *testing.T) {
	const (
		hour = netsim.Time(3600)
		day  = 24 * hour
	)
	received := 3 * day // published at a day boundary

	cases := []struct {
		name string
		now  netsim.Time
		live bool
	}{
		{"just published", received, true},
		{"mid TTL", received + 12*hour, true},
		{"one tick before expiry", received + day - hour, true},
		{"last instant alive", received + day - 1, true},
		{"exactly at TTL", received + day, false},
		{"one tick after TTL", received + day + hour, false},
		{"next daily sweep", received + 2*day, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewProviderStore(day, intern.NewTables())
			c := ids.CIDFromSeed(7)
			s.Put(c, netsim.ProviderRecord{
				Provider: netsim.PeerInfo{ID: ids.PeerIDFromSeed(7)},
				Received: received,
			})

			wantLen := 0
			if tc.live {
				wantLen = 1
			}
			if got := len(s.Get(c, tc.now)); got != wantLen {
				t.Errorf("Get at %d: %d records, want %d", tc.now, got, wantLen)
			}
			if got := s.Len(tc.now); got != wantLen {
				t.Errorf("Len at %d: %d, want %d", tc.now, got, wantLen)
			}

			// The daily sweep must agree with the read path, and the
			// conservation ledger must balance before and after.
			if st := s.Stats(); st.Created != 1 || st.Pruned != 0 || st.Stored != 1 {
				t.Fatalf("pre-sweep stats %+v", st)
			}
			s.Expire(tc.now)
			st := s.Stats()
			if st.Stored != int64(wantLen) || st.Created-st.Pruned != st.Stored {
				t.Errorf("post-sweep stats %+v, want stored=%d and created-pruned=stored", st, wantLen)
			}
			if tc.live && s.CIDs() != 1 {
				t.Error("Expire pruned a live record")
			}
			if !tc.live && s.CIDs() != 0 {
				t.Error("Expire left a dead record behind")
			}
		})
	}
}

// TestProviderStoreExpireCostIsOutputSensitive pins the complexity of
// the day-bucketed sweep across a 10-day run: the entries Expire visits
// (ExpireTouched) are bounded by the put/refresh volume — every Put
// adds exactly one bucket entry and every entry is visited at most
// twice (once retained on its expiry day, once pruned) — and never by
// the live population. The v1 store walked every live record every day;
// with a large stable population and a trickle of expiring records,
// that cost was population × days.
func TestProviderStoreExpireCostIsOutputSensitive(t *testing.T) {
	const (
		hour = netsim.Time(3600)
		day  = 24 * hour
		ttl  = 36 * hour // the scenario's provider TTL
	)
	s := NewProviderStore(ttl, intern.NewTables())

	// A large stable population: 20k records refreshed every day (so
	// they never expire), plus 10 records per day that are published
	// once and left to expire.
	const stable = 20000
	const churnPerDay = 10
	stableCID := func(i int) ids.CID { return ids.CIDFromSeed(uint64(i)) }
	prov := netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}

	puts := 0
	for d := 0; d < 10; d++ {
		now := netsim.Time(d) * day
		for i := 0; i < stable; i++ {
			s.Put(stableCID(i), netsim.ProviderRecord{Provider: prov, Received: now})
			puts++
		}
		for i := 0; i < churnPerDay; i++ {
			c := ids.CIDFromSeed(uint64(1<<32 + d*churnPerDay + i))
			s.Put(c, netsim.ProviderRecord{Provider: prov, Received: now})
			puts++
		}
		s.Expire(now + 23*hour) // the scenario's daily sweep
	}

	touched := s.ExpireTouched()
	// Each bucket entry can be visited at most twice; anything beyond
	// 2×puts means the sweep is rescanning live records.
	if max := int64(2 * puts); touched > max {
		t.Fatalf("Expire visited %d entries for %d puts (max %d): sweep cost is population-bound, not expiry-bound", touched, puts, max)
	}
	// Sanity: the sweep actually pruned the churned records older than
	// the TTL, and the stable population survived.
	st := s.Stats()
	if st.Stored < stable {
		t.Fatalf("stable population shrank: %+v", st)
	}
	if st.Pruned == 0 {
		t.Fatal("no records pruned over 10 days despite churn")
	}
}

// TestProviderStoreStatsRefresh pins the ledger semantics across
// re-advertisement: a refresh replaces in place (no new creation), and
// a record re-published after pruning counts as a fresh creation.
func TestProviderStoreStatsRefresh(t *testing.T) {
	s := NewProviderStore(100, intern.NewTables())
	c := ids.CIDFromSeed(1)
	p := netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}

	s.Put(c, netsim.ProviderRecord{Provider: p, Received: 0})
	s.Put(c, netsim.ProviderRecord{Provider: p, Received: 50}) // refresh
	if st := s.Stats(); st.Created != 1 || st.Stored != 1 {
		t.Fatalf("refresh must not create: %+v", st)
	}

	s.Expire(150) // received=50 + ttl=100 → pruned
	if st := s.Stats(); st.Pruned != 1 || st.Stored != 0 {
		t.Fatalf("expiry ledger: %+v", st)
	}

	s.Put(c, netsim.ProviderRecord{Provider: p, Received: 200}) // re-publish
	st := s.Stats()
	if st.Created != 2 || st.Stored != 1 || st.Created-st.Pruned != st.Stored {
		t.Fatalf("re-publish ledger: %+v", st)
	}
}
