package scenario

// Warm-start checkpoints for the timeline engine. A Snapshot is a
// deterministic fingerprint of everything in a world that evolves —
// the actor registry, the per-node provider-record ledgers, the content
// catalogue, the vantage-point trace accumulators, the RPC counters and
// the (possibly rewritten) live config — taken at an epoch boundary.
//
// Restore is replay-based: math/rand generator state is opaque, so a
// checkpoint does not serialize the world; it pins its state. Resuming
// a timeline rebuilds the world from the same config, replays the
// deterministic schedule prefix tick for tick, and verifies the
// replayed world's Snapshot against the checkpoint before continuing.
// Because the engine's evolution is a pure function of (Config,
// schedule, tick) for every Workers value, a verified resume is
// byte-identical to a straight-through run — the property pinned by
// TestTimelineWorkerDeterminism.
//
// Every World field must be accounted for in exactly one of the two
// tables in snapshot_reflect_test.go: worldSnapshotFields (walked by the
// digest) or worldSnapshotExcluded (with the reason it is safe to skip).
// TestWorldSnapshotCompleteness fails when a new field is added to World
// without deciding its checkpoint treatment.

import (
	"fmt"
	"hash/fnv"
	"math"

	"tcsb/internal/trace"
)

// Snapshot fingerprints a world's evolving state. The exported counters
// exist so a failed resume can say *what* diverged; Digest covers the
// full canonical state walk, including everything the counters summarize.
type Snapshot struct {
	Tick int
	// Population.
	Actors, Online, Servers, Clients, PinnedOffline int
	// Content.
	CatalogSize, LiveCIDs int
	// Identifier sequences (peer and CID allocation cursors).
	PeerSeq, CIDSeq uint64
	// Provider-record ledger totals across all nodes.
	RecordsCreated, RecordsPruned, RecordsStored int64
	// Network and vantage activity.
	TotalRPCs     int64
	HydraEvents   int
	HydraDownload int64
	HydraAdvert   int64
	MonitorEvents int
	// Link impairment totals (zero under net.ideal) and the number of
	// samples the timing sink has folded across all phases.
	LinkIssued, LinkDropped, LinkDelivered int64
	TimingSamples                          uint64
	// InternDigest fingerprints the world's handle tables (contents in
	// insertion order), pinning dense handle assignment across worker
	// counts and checkpoint resume even though handles never reach output.
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
		Tick:    w.tick,
		Actors:  len(w.Actors),
		Servers: len(w.servers),
		Clients: len(w.clients),
		PeerSeq: w.peerSeq,
		CIDSeq:  w.cidSeq,
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
		s.RecordsCreated += st.Created
		s.RecordsPruned += st.Pruned
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
	s.LinkIssued, s.LinkDropped, s.LinkDelivered = w.Net.LinkStats()
	i64(s.LinkIssued)
	i64(s.LinkDropped)
	i64(s.LinkDelivered)
	i64(w.Net.LinkElapsedUS())
	for _, p := range trace.Phases() {
		sk := w.Timing.Sketch(p)
		u64(sk.Count())
		f64(sk.Sum())
		f64(sk.Min())
		f64(sk.Max())
		s.TimingSamples += sk.Count()
	}

	// Handle tables: derived state (never rendered), pinned through the
	// separate InternDigest field — Diff compares it on every resume
	// verification, but it stays out of the rendered Digest so timeline
	// fingerprints remain comparable across interning-only changes.
	s.InternDigest = w.Intern.Digest()

	s.Digest = h.Sum64()
	return s
}

// Diff reports the first field where two snapshots diverge, or "" when
// they are identical. It exists so a failed checkpoint verification can
// name the drift instead of printing two opaque digests.
func (s Snapshot) Diff(o Snapshot) string {
	type cmp struct {
		name string
		a, b int64
	}
	for _, c := range []cmp{
		{"tick", int64(s.Tick), int64(o.Tick)},
		{"actors", int64(s.Actors), int64(o.Actors)},
		{"online", int64(s.Online), int64(o.Online)},
		{"servers", int64(s.Servers), int64(o.Servers)},
		{"clients", int64(s.Clients), int64(o.Clients)},
		{"pinned-offline", int64(s.PinnedOffline), int64(o.PinnedOffline)},
		{"catalog", int64(s.CatalogSize), int64(o.CatalogSize)},
		{"live-cids", int64(s.LiveCIDs), int64(o.LiveCIDs)},
		{"peer-seq", int64(s.PeerSeq), int64(o.PeerSeq)},
		{"cid-seq", int64(s.CIDSeq), int64(o.CIDSeq)},
		{"records-created", s.RecordsCreated, o.RecordsCreated},
		{"records-pruned", s.RecordsPruned, o.RecordsPruned},
		{"records-stored", s.RecordsStored, o.RecordsStored},
		{"total-rpcs", s.TotalRPCs, o.TotalRPCs},
		{"hydra-events", int64(s.HydraEvents), int64(o.HydraEvents)},
		{"hydra-download", s.HydraDownload, o.HydraDownload},
		{"hydra-advertise", s.HydraAdvert, o.HydraAdvert},
		{"monitor-events", int64(s.MonitorEvents), int64(o.MonitorEvents)},
		{"link-issued", s.LinkIssued, o.LinkIssued},
		{"link-dropped", s.LinkDropped, o.LinkDropped},
		{"link-delivered", s.LinkDelivered, o.LinkDelivered},
		{"timing-samples", int64(s.TimingSamples), int64(o.TimingSamples)},
	} {
		if c.a != c.b {
			return fmt.Sprintf("%s: %d != %d", c.name, c.a, c.b)
		}
	}
	if s.InternDigest != o.InternDigest {
		return fmt.Sprintf("intern-digest: %#x != %#x (handle assignment order diverged)", s.InternDigest, o.InternDigest)
	}
	if s.Digest != o.Digest {
		return fmt.Sprintf("digest: %#x != %#x (counters agree; deep state diverged)", s.Digest, o.Digest)
	}
	return ""
}
