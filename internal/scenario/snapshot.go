package scenario

// Epoch-boundary fingerprints for the timeline engine. A Snapshot is a
// deterministic fingerprint of everything in a world that evolves —
// the actor registry, the per-node provider-record ledgers, the content
// catalogue, the vantage-point trace accumulators, the RPC counters and
// the (possibly rewritten) live config — taken at an epoch boundary.
// A timeline's epoch rows read its counters and their deltas between
// two boundaries; timeline.digest renders its Digest, so drift in any
// evolving state moves the output bytes even where no column shows it.
// The engine's evolution is a pure function of (Config, schedule,
// tick), the same for every Workers value, and so are the digests.
//
// Every World field must be accounted for in exactly one of the two
// tables in snapshot_reflect_test.go: worldSnapshotFields (walked by the
// digest) or worldSnapshotExcluded (with the reason it is safe to skip).
// TestWorldSnapshotCompleteness fails when a new field is added to World
// without deciding its snapshot treatment.

import (
	"fmt"
	"hash/fnv"
	"math"

	"tcsb/internal/trace"
)

// Snapshot fingerprints a world's evolving state. The counters are the
// ones a timeline's epoch rows report; Digest covers the full canonical
// state walk, including everything the counters summarize.
type Snapshot struct {
	// Population.
	Online, Servers, Clients, PinnedOffline int
	// Content.
	CatalogSize, LiveCIDs int
	// Provider records stored across all nodes.
	RecordsStored int64
	// Network and vantage activity.
	TotalRPCs     int64
	HydraEvents   int
	HydraDownload int64
	HydraAdvert   int64
	MonitorEvents int
	// InternDigest fingerprints the world's handle tables (contents in
	// insertion order), pinning dense handle assignment across worker
	// counts even though handles never reach output.
	InternDigest uint64
	// Digest is the FNV-1a fingerprint of the canonical state walk.
	Digest uint64
}

// Snapshot fingerprints the world's current state. It is read-only and
// must be called from the serial path (between ticks / at epoch
// boundaries), like every other whole-world observation.
func (w *World) Snapshot() Snapshot {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	boolean := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	s := Snapshot{
		Servers: len(w.servers),
		Clients: len(w.clients),
	}

	// Config (canonical: fmt renders maps in sorted key order).
	str(fmt.Sprintf("%+v", w.Cfg))

	// Clock-and-sequence scalars.
	i64(int64(w.tick))
	u64(w.peerSeq)
	u64(w.cidSeq)
	i64(int64(w.bankIdx))

	// Actor registry in creation order: identity, role, liveness,
	// address, and the per-node provider-record ledger.
	u64(uint64(len(w.order)))
	for _, id := range w.order {
		a := w.Actors[id]
		k := id.Key()
		h.Write(k[:])
		if a == nil {
			continue
		}
		boolean(a.Online)
		boolean(a.PinnedOffline)
		boolean(a.NAT)
		boolean(a.Cloud)
		str(a.Provider)
		str(a.Country)
		str(a.Platform)
		str(a.IP.String())
		rk := a.Relay.Key()
		h.Write(rk[:])
		f64(a.activity)
		u64(uint64(len(a.Owned)))
		st := a.Node.ProviderStats()
		i64(st.Created)
		i64(st.Pruned)
		i64(st.Stored)
		s.RecordsStored += st.Stored
		if a.Online {
			s.Online++
		}
		if a.PinnedOffline {
			s.PinnedOffline++
		}
	}
	u64(uint64(len(w.servers)))
	for _, id := range w.servers {
		k := id.Key()
		h.Write(k[:])
	}
	u64(uint64(len(w.clients)))
	for _, id := range w.clients {
		k := id.Key()
		h.Write(k[:])
	}

	// Content catalogue and live set.
	s.CatalogSize = len(w.catalog)
	s.LiveCIDs = len(w.live)
	u64(uint64(len(w.catalog)))
	for i := range w.catalog {
		e := &w.catalog[i]
		k := e.cid.Key()
		h.Write(k[:])
		ok := e.owner.Key()
		h.Write(ok[:])
		i64(int64(e.bornTick))
		i64(int64(e.dieTick))
		boolean(e.persistent)
	}
	u64(uint64(len(w.live)))
	for _, idx := range w.live {
		i64(int64(idx))
	}

	// Vantage-point streaming accumulators.
	accum := func(st *trace.Accum) (events int, dl, adv int64) {
		if st == nil {
			u64(0)
			return 0, 0, 0
		}
		events = st.Len()
		dl = st.ClassCount(trace.Download)
		adv = st.ClassCount(trace.Advertise)
		i64(int64(events))
		i64(dl)
		i64(adv)
		i64(st.ClassCount(trace.Other))
		i64(int64(st.DistinctPeers()))
		return events, dl, adv
	}
	s.HydraEvents, s.HydraDownload, s.HydraAdvert = accum(w.Hydra.Stats())
	i64(int64(w.Hydra.CacheSize()))
	i64(int64(w.Hydra.PendingLookups()))
	s.MonitorEvents, _, _ = accum(w.Monitor.Stats())
	u64(uint64(len(w.PLHydras)))
	for _, ph := range w.PLHydras {
		i64(int64(ph.CacheSize()))
		i64(int64(ph.PendingLookups()))
	}

	// Gateways: identity and served volume (the HTTP cache itself is
	// derived from the replayed request stream these counters summarize).
	u64(uint64(len(w.Gateways)))
	for _, gw := range w.Gateways {
		str(gw.Domain())
		i64(gw.Requests)
		i64(gw.CacheHits)
		i64(gw.PoisonedServed)
	}

	// Adversarial state (attack.go): targets and sybil identities.
	u64(uint64(len(w.attackTargets)))
	for _, c := range w.attackTargets {
		k := c.Key()
		h.Write(k[:])
	}
	u64(uint64(len(w.attackers)))
	for _, id := range w.attackers {
		k := id.Key()
		h.Write(k[:])
	}

	// Network totals.
	s.TotalRPCs = w.Net.TotalMessages()
	i64(s.TotalRPCs)

	// Link impairment totals and the timing sink's per-phase sketch
	// summaries (count/sum/min/max pin the folded sample stream; the
	// quantiles are a pure function of it).
	issued, dropped, delivered := w.Net.LinkStats()
	i64(issued)
	i64(dropped)
	i64(delivered)
	i64(w.Net.LinkElapsedUS())
	for _, p := range trace.Phases() {
		sk := w.Timing.Sketch(p)
		u64(sk.Count())
		f64(sk.Sum())
		f64(sk.Min())
		f64(sk.Max())
	}

	// Handle tables: derived state (never rendered), pinned through the
	// separate InternDigest field, which the worker-determinism tests
	// compare; it stays out of the rendered Digest so timeline
	// fingerprints remain comparable across interning-only changes.
	s.InternDigest = w.Intern.Digest()

	s.Digest = h.Sum64()
	return s
}
