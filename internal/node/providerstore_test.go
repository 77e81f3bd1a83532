package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/maddr"
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

// TestProviderStoreExpireCostIsOutputSensitive pins the cost of the
// daily sweep across a 10-day run: the records Expire visits
// (ExpireTouched) stay within twice the put/refresh volume. Expire
// visits every stored record, so this holds only because records do
// not outlive their last put for long: sweeps run once a day and the
// TTL is at most 36 h, so a put is followed by at most ⌈TTL/24 h⌉ + 1
// sweeps before its record is refreshed or pruned, and here, where
// every put lands 23 h before a sweep, by at most two. A store whose
// records lived unrefreshed for many sweeps would fail the bound.
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

// TestProviderStoreMatchesModel drives random Put, refresh, AppendGet,
// Expire and CountFrom sequences against a naive map keyed by (CID,
// provider) and, after every step, holds the store to it: the records
// AppendGet returns and their order (onto an empty and a non-empty
// dst), CountFrom for every provider, Len, CIDs and the Stats ledger.
// Both scenario TTLs run, and the clock lands on day boundaries and on
// the TTL edge of a record (received+TTL and one second before).
func TestProviderStoreMatchesModel(t *testing.T) {
	for _, ttlHours := range []netsim.Time{24, 36} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ttl=%dh/seed=%d", ttlHours, seed), func(t *testing.T) {
				runProviderStoreModel(t, ttlHours*3600, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func runProviderStoreModel(t *testing.T, ttl netsim.Time, rng *rand.Rand) {
	const (
		hour = netsim.Time(3600)
		day  = 24 * hour
	)
	type key struct {
		c ids.CID
		p ids.PeerID
	}
	cids := make([]ids.CID, 6)
	for i := range cids {
		cids[i] = ids.CIDFromSeed(uint64(100 + i))
	}
	provs := make([]ids.PeerID, 9)
	for i := range provs {
		provs[i] = ids.PeerIDFromSeed(uint64(200 + i))
	}
	s := NewProviderStore(ttl, intern.NewTables())
	model := map[key]netsim.ProviderRecord{}
	var created, pruned int64
	live := func(r netsim.ProviderRecord, now netsim.Time) bool { return now-r.Received < ttl }
	var now netsim.Time

	check := func(step int, op string) {
		t.Helper()
		sentinel := netsim.ProviderRecord{Provider: netsim.PeerInfo{ID: ids.PeerIDFromSeed(1)}, Received: -1}
		for _, c := range cids {
			var want []netsim.ProviderRecord
			for _, p := range provs {
				if r, ok := model[key{c, p}]; ok && live(r, now) {
					want = append(want, r)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				return want[i].Provider.ID.Key().Cmp(want[j].Provider.ID.Key()) < 0
			})
			for _, dst := range [][]netsim.ProviderRecord{nil, {sentinel}} {
				got := s.AppendGet(dst, c, now)
				if len(dst) > 0 {
					if len(got) == 0 || !reflect.DeepEqual(got[0], sentinel) {
						t.Fatalf("step %d (%s): AppendGet clobbered dst: %+v", step, op, got)
					}
					got = got[1:]
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s) at %d: AppendGet(%d-element dst) =\n%+v\nwant\n%+v",
						step, op, now, len(dst), got, want)
				}
			}
		}
		for _, p := range provs {
			want := 0
			for k, r := range model {
				if k.p == p && live(r, now) {
					want++
				}
			}
			if got := s.CountFrom(p, now); got != want {
				t.Fatalf("step %d (%s): CountFrom(%s) = %d, want %d", step, op, p.String(), got, want)
			}
		}
		alive, cidSet := 0, map[ids.CID]bool{}
		for k, r := range model {
			cidSet[k.c] = true
			if live(r, now) {
				alive++
			}
		}
		if got := s.Len(now); got != alive {
			t.Fatalf("step %d (%s): Len = %d, want %d", step, op, got, alive)
		}
		if got := s.CIDs(); got != len(cidSet) {
			t.Fatalf("step %d (%s): CIDs = %d, want %d", step, op, got, len(cidSet))
		}
		want := ProviderStats{Created: created, Pruned: pruned, Stored: int64(len(model))}
		if got := s.Stats(); got != want {
			t.Fatalf("step %d (%s): Stats = %+v, want %+v", step, op, got, want)
		}
	}

	// stored lists the model's keys in a fixed order, so a seed fixes
	// which record an operation picks.
	stored := func() []key {
		var ks []key
		for _, c := range cids {
			for _, p := range provs {
				if _, ok := model[key{c, p}]; ok {
					ks = append(ks, key{c, p})
				}
			}
		}
		return ks
	}

	put := func(received netsim.Time) {
		k := key{cids[rng.Intn(len(cids))], provs[rng.Intn(len(provs))]}
		var addrs []maddr.Addr
		if n := rng.Intn(3); n > 0 {
			addrs = make([]maddr.Addr, n)
			for i := range addrs {
				addrs[i] = maddr.Addr{Port: uint16(rng.Intn(1 << 16))}
			}
		}
		r := netsim.ProviderRecord{Provider: netsim.PeerInfo{ID: k.p, Addrs: addrs}, Received: received}
		if _, ok := model[k]; !ok {
			created++
		}
		model[k] = r
		s.Put(k.c, r)
	}

	for step := 0; step < 1500; step++ {
		var op string
		switch x := rng.Intn(20); {
		case x < 8:
			op = "put now"
			put(now)
		case x < 9:
			op = "put at a day boundary"
			put(now / day * day)
		case x < 10:
			// Already dead on arrival, or on its last live second.
			op = "put at the TTL edge"
			put(now - ttl + netsim.Time(rng.Intn(2)))
		case x < 11:
			op = "refresh"
			if ks := stored(); len(ks) > 0 {
				k := ks[rng.Intn(len(ks))]
				r := model[k]
				r.Received = now
				r.Provider.Addrs = []maddr.Addr{{Port: uint16(step)}}
				model[k] = r
				s.Put(k.c, r)
			}
		case x < 15:
			op = "advance"
			now += netsim.Time(1 + rng.Intn(int(6*hour)))
		case x < 16:
			op = "advance to the next day boundary"
			now = (now/day + 1) * day
		case x < 17:
			op = "advance to a record's TTL edge"
			if ks := stored(); len(ks) > 0 {
				r := model[ks[rng.Intn(len(ks))]]
				if e := r.Received + ttl - netsim.Time(rng.Intn(2)); e > now {
					now = e
				}
			}
		default:
			op = "expire"
			for k, r := range model {
				if !live(r, now) {
					delete(model, k)
					pruned++
				}
			}
			s.Expire(now)
		}
		check(step, op)
	}
	if pruned == 0 || created < 20 {
		t.Fatalf("sequence too tame: created %d, pruned %d", created, pruned)
	}
}
