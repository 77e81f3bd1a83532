// Package core is the observatory facade: it wires the scenario world to
// every measurement tool of the paper and exposes one function per table
// and figure of the evaluation. Running the observatory produces the full
// multi-modal dataset — crawl series, Bitswap monitor log, Hydra log,
// provider-record collection, gateway census, DNSLink scan and ENS
// extraction — from which the Fig*/Table* methods derive the paper's
// results.
package core

import (
	"math/rand"

	"tcsb/internal/crawler"
	"tcsb/internal/dnslink"
	"tcsb/internal/ens"
	"tcsb/internal/gwprobe"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/scenario"
	"tcsb/internal/trace"
)

// RunConfig controls the observation campaign layered on a world.
type RunConfig struct {
	// Days of simulated time to observe (the paper: 38 days of crawls,
	// 28 days of provider records, months of traffic; default 10).
	Days int
	// CrawlsPerDay is the DHT crawl frequency (the paper: ≥2/day).
	CrawlsPerDay int
	// DailyCIDSample is the daily sampled Bitswap CID count (200k in the
	// paper; scaled down with the world).
	DailyCIDSample int
	// GatewayProbeRounds is how many HTTP probes to send per gateway.
	GatewayProbeRounds int
	// DNSLinkDomains / ENSNames size the entry-point populations.
	DNSLinkDomains int
	ENSNames       int
	// Workers bounds the goroutine pool driving the campaign: world
	// tick phases, crawl dial fan-out, per-CID provider-record
	// collection and the post-simulation analysis stages. Every dataset
	// the observatory produces is byte-identical for every Workers
	// value (0 or 1 = fully serial).
	Workers int
}

// DefaultRunConfig returns the laptop-scale campaign.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Days:               10,
		CrawlsPerDay:       2,
		DailyCIDSample:     250,
		GatewayProbeRounds: 16,
		DNSLinkDomains:     400,
		ENSNames:           300,
		Workers:            1,
	}
}

// Observatory holds a world plus every dataset collected from it.
type Observatory struct {
	World *scenario.World
	Run   RunConfig

	// Crawls is the DHT snapshot series (Figs. 3–8).
	Crawls crawler.Series
	// Records is the provider-record collection (Figs. 14–16).
	Records provrecords.Collection
	// Census maps gateway domains to discovered overlay IDs.
	Census map[string][]ids.PeerID
	// GatewaySet flattens the census for the Fig. 10 split.
	GatewaySet map[ids.PeerID]bool
	// DNSLinkResults is the active scan output (Fig. 17).
	DNSLinkResults []dnslink.Result
	// ENSRecords is the extracted ipfs-ns record set (Fig. 20).
	ENSRecords []ens.Record
	// ENSProviders holds provider records resolved for ENS CIDs.
	ENSProviders provrecords.Collection

	// memo caches derived datasets shared by several experiments; see
	// memo.go. Safe for concurrent use once observation has finished.
	memo memo
}

// Observe runs the full observation campaign on a built world.
//
// The campaign parallelizes on rc.Workers without changing a single
// byte of any dataset: world ticks run their sharded phases on the
// pool, each crawl fans its dial sweeps out, the day's provider-record
// walks collect concurrently per CID, and after the simulated days the
// DNSLink scan runs alongside the ENS provider resolution (the two
// stages share no mutable state). Gateway probes stay serial by nature:
// each probe plants content on the monitor and immediately reads its
// own Bitswap trace back, an inherently sequential protocol.
func Observe(w *scenario.World, rc RunConfig) *Observatory {
	o := &Observatory{World: w, Run: rc}
	days := newDayLoop(w, rc, &o.Crawls, &o.Records)

	w.PopulateDNSLink(rc.DNSLinkDomains)
	resolvers := w.PopulateENS(rc.ENSNames)
	days.run(rc.Days)

	// Gateway identification probes via the monitor (serial: each probe
	// reads its own planted content's trace back from the shared log).
	prober := gwprobe.New(w.Monitor, uint64(w.Cfg.Seed)<<32+0x9a7e, w.Net.Online)
	prober.Instrument(w.Net, w.Timing)
	o.Census = prober.Census(w.PublicGateways(), rc.GatewayProbeRounds)
	o.GatewaySet = gwprobe.GatewayPeerSet(o.Census)

	// Post-simulation stages over the finished world: the DNSLink active
	// scan touches only the DNS universe, the ENS pipeline touches only
	// the overlay — run them concurrently when the pool allows. With a
	// single worker both stages run on this goroutine, ENS first (the
	// documented fully-serial mode); results are identical either way.
	ensStage := func() {
		o.ENSRecords = ens.Extract(resolvers)
		seen := map[ids.CID]bool{}
		var cids []ids.CID
		for _, r := range o.ENSRecords {
			if seen[r.CID] {
				continue
			}
			seen[r.CID] = true
			cids = append(cids, r.CID)
		}
		days.collector.CollectDayParallel(&o.ENSProviders, cids, int64(rc.Days), max(w.Workers-1, 1))
	}
	dnsStage := func() {
		scanner := dnslink.NewScanner(w.DNS, w.GatewayDomains())
		o.DNSLinkResults = scanner.Scan()
	}
	stages := []func(){ensStage, dnsStage}
	netsim.ParallelFor(w.Workers, len(stages), func(i int) { stages[i]() })
	return o
}

// dayLoop is the observation day loop every campaign shape runs: a
// day's ticks with the DHT crawls spread across them, then that day's
// sampled Bitswap CIDs collected into provider records, the same day,
// as in the paper. The crawl and day counters carry across run calls,
// so a timeline's epochs continue one crawl and day numbering.
type dayLoop struct {
	w  *scenario.World
	rc RunConfig
	// rng draws the daily CID samples, once per day in day order.
	rng       *rand.Rand
	collector *provrecords.Collector
	crawls    *crawler.Series
	records   *provrecords.Collection
	crawlID   int
	day       int
}

// newDayLoop applies rc.Workers to the world and prepares the loop to
// append crawls and records to the given datasets.
func newDayLoop(w *scenario.World, rc RunConfig, crawls *crawler.Series, records *provrecords.Collection) *dayLoop {
	if rc.Workers > 0 {
		w.Workers = rc.Workers
	}
	return &dayLoop{
		w:   w,
		rc:  rc,
		rng: rand.New(rand.NewSource(w.Cfg.Seed ^ 0x0b5e7)),
		collector: provrecords.NewCollector(w.Net, w.CollectorID(),
			func(target ids.Key) []netsim.PeerInfo { return w.SeedsNear(target, 8) }),
		crawls:  crawls,
		records: records,
	}
}

// run observes n days and returns how many CIDs their samples drew.
func (l *dayLoop) run(n int) (collected int) {
	w, rc := l.w, l.rc
	interval := scenario.TicksPerDay / max(rc.CrawlsPerDay, 1)
	for d := 0; d < n; d++ {
		for t := 0; t < scenario.TicksPerDay; t++ {
			w.StepTick()
			if rc.CrawlsPerDay > 0 && t%interval == interval-1 && l.crawlID < (l.day+1)*rc.CrawlsPerDay {
				l.crawlID++
				l.crawls.Add(w.Crawl(l.crawlID))
			}
		}
		// Drawn from the monitor's streaming statistics (identical to
		// sampling the raw log). Walks are independent; fan out per CID.
		sample := w.Monitor.SampleDay(int64(l.day), rc.DailyCIDSample, l.rng)
		l.collector.CollectDayParallel(l.records, sample, int64(l.day), w.Workers)
		collected += len(sample)
		l.day++
	}
	return collected
}

// HydraStats returns the vantage Hydra's streaming request statistics —
// the analysis view every Hydra-log experiment derives from, with the
// observatory's own measurement identities excluded at ingest.
func (o *Observatory) HydraStats() *trace.Accum { return o.World.Hydra.Stats() }

// MonitorStats returns the Bitswap monitor's streaming statistics.
func (o *Observatory) MonitorStats() *trace.Accum { return o.World.Monitor.Stats() }
