package main

// The traced drivers replay the engine's campaign call sequence with a
// span around each call into a layer's public API. They reproduce the
// programs' output bytes (paper, whatif, serve) or epoch digests
// (timeline), which the benchmark checks, so a span table always
// describes the work the programs do. They call layer functions only,
// never the core.Observe*/RunTimeline* entry points whose internals they
// stand in for, and they must follow those internals when the engine's
// call sequence changes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"tcsb/internal/analyze"
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/dnslink"
	"tcsb/internal/ens"
	"tcsb/internal/experiments"
	"tcsb/internal/gwprobe"
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/runcache"
	"tcsb/internal/scenario"
)

// sampleSeedSalt derives the daily Bitswap-sample stream from the world
// seed, as the engine's campaign drivers do.
const sampleSeedSalt = 0x0b5e7

// msgsOf reads the RPC counter of the world *w points at, once built.
func msgsOf(w **scenario.World) func() int64 {
	return func() int64 {
		if *w == nil {
			return 0
		}
		return (*w).Net.TotalMessages()
	}
}

func buildWorld(rec *recorder, build func() *scenario.World) *scenario.World {
	var w *scenario.World
	rec.do(layerBuild, msgsOf(&w), func() { w = build() })
	return w
}

func stepTick(rec *recorder, w *scenario.World, msgs func() int64) {
	name := layerTick
	if w.Tick()%scenario.TicksPerDay == scenario.TicksPerDay-1 {
		name = layerRollover
	}
	rec.do(name, msgs, w.StepTick)
}

func newCollector(w *scenario.World) *provrecords.Collector {
	return provrecords.NewCollector(w.Net, w.CollectorID(),
		func(target ids.Key) []netsim.PeerInfo { return w.SeedsNear(target, 8) })
}

// observeDays runs days of ticks with the day's crawls, then the day's
// provider-record collection, appending to crawls and records. crawlID
// and day carry the running crawl and day counters across calls.
func observeDays(rec *recorder, w *scenario.World, rc core.RunConfig, days int, rng *rand.Rand,
	collector *provrecords.Collector, o *core.Observatory, crawlID, day *int) {

	msgs := w.Net.TotalMessages
	for d := 0; d < days; d++ {
		interval := scenario.TicksPerDay / max(rc.CrawlsPerDay, 1)
		for t := 0; t < scenario.TicksPerDay; t++ {
			stepTick(rec, w, msgs)
			if rc.CrawlsPerDay > 0 && t%interval == interval-1 && *crawlID < (*day+1)*rc.CrawlsPerDay {
				*crawlID++
				rec.do(layerCrawl, msgs, func() { o.Crawls.Add(w.Crawl(*crawlID)) })
			}
		}
		rec.do(layerCollect, msgs, func() {
			sample := w.Monitor.SampleDay(int64(*day), rc.DailyCIDSample, rng)
			collector.CollectDayParallel(&o.Records, sample, int64(*day), w.Workers)
		})
		*day++
	}
}

// observeWorld replays core.ObserveWorld. Where the engine overlaps the
// ENS and DNSLink stages on two workers, this runs them one after the
// other; they share no state, so the datasets are the same and each
// stage gets its own span.
func observeWorld(rec *recorder, w *scenario.World, rc core.RunConfig) *core.Observatory {
	o := &core.Observatory{World: w, Run: rc}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ sampleSeedSalt))
	if rc.Workers > 0 {
		w.Workers = rc.Workers
	}
	msgs := w.Net.TotalMessages

	var resolvers []*ens.Resolver
	rec.do(layerPopulate, msgs, func() {
		w.PopulateDNSLink(rc.DNSLinkDomains)
		resolvers = w.PopulateENS(rc.ENSNames)
	})
	collector := newCollector(w)
	crawlID, day := 0, 0
	observeDays(rec, w, rc, rc.Days, rng, collector, o, &crawlID, &day)

	rec.do(layerCensus, msgs, func() {
		prober := gwprobe.New(w.Monitor, uint64(w.Cfg.Seed)<<32+0x9a7e, w.Net.Online)
		prober.Instrument(w.Net, w.Timing)
		o.Census = prober.Census(w.PublicGateways(), rc.GatewayProbeRounds)
		o.GatewaySet = gwprobe.GatewayPeerSet(o.Census)
	})
	rec.do(layerENS, msgs, func() {
		o.ENSRecords = ens.Extract(resolvers)
		seen := map[ids.CID]bool{}
		var cids []ids.CID
		for _, r := range o.ENSRecords {
			if !seen[r.CID] {
				seen[r.CID] = true
				cids = append(cids, r.CID)
			}
		}
		collector.CollectDayParallel(&o.ENSProviders, cids, int64(rc.Days), max(w.Workers-1, 1))
	})
	rec.do(layerDNSLink, msgs, func() {
		o.DNSLinkResults = dnslink.NewScanner(w.DNS, w.GatewayDomains()).Scan()
	})
	return o
}

func parallelOf(res *experiments.Resolved) int { return max(res.Parallel, 1) }

func resolve(rec *recorder, req core.RunRequest) (*experiments.Resolved, error) {
	var res *experiments.Resolved
	var err error
	rec.do(layerResolve, nil, func() { res, err = experiments.Resolve(req) })
	return res, err
}

func render(rec *recorder, results []experiments.Result) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	rec.do(layerRender, nil, func() { err = experiments.RenderJSONL(&buf, results) })
	return buf.Bytes(), err
}

// tracedPlain is Resolved.ExecuteJSONL for a plain run.
func tracedPlain(rec *recorder, res *experiments.Resolved) ([]byte, error) {
	w := buildWorld(rec, func() *scenario.World { return scenario.NewWorld(res.Cfg) })
	o := observeWorld(rec, w, res.RC)
	var results []experiments.Result
	var err error
	rec.do(layerDerive, nil, func() { results, err = experiments.Run(o, res.Req.Only, parallelOf(res)) })
	if err != nil {
		return nil, err
	}
	return render(rec, results)
}

// Lane labels of a paired run; the spans of each lane carry its label.
const (
	laneBaseline = "baseline"
	laneWhatIf   = "whatif"
)

// tracedPaired is Resolved.ExecuteJSONL for a what-if run. The engine
// runs the two lanes at once, each on half the workers; this runs them
// one after the other with the same per-lane workers, so every span's
// cpu and allocation belong to one lane. The datasets depend only on
// each lane's config, so the output is the same.
func tracedPaired(rec *recorder, res *experiments.Resolved) ([]byte, error) {
	run := rec.run
	rc := res.RC
	half, rest := 1, 1
	if rc.Workers >= 2 {
		half, rest = rc.Workers/2, rc.Workers-rc.Workers/2
	}
	lane := func(label string, workers int, build func() *scenario.World) *core.Observatory {
		rec.setRun(label)
		w := buildWorld(rec, build)
		r := rc
		r.Workers = workers
		return observeWorld(rec, w, r)
	}
	baseline := lane(laneBaseline, half, func() *scenario.World { return scenario.NewWorld(res.Cfg) })
	whatif := lane(laneWhatIf, rest, func() *scenario.World {
		return counterfactual.BuildWorld(res.Cfg, res.Interventions)
	})
	rec.setRun(run)
	var results []experiments.Result
	var err error
	rec.do(layerDerive, nil, func() {
		results, err = experiments.RunPaired(baseline, whatif,
			counterfactual.NamesOf(res.Interventions), res.Req.Only, parallelOf(res))
	})
	if err != nil {
		return nil, err
	}
	return render(rec, results)
}

// tracedTimeline replays core.RunTimeline and returns the state digest
// at the end of each epoch, rendered as the timeline.digest rows render
// them.
func tracedTimeline(rec *recorder, res *experiments.Resolved) []string {
	cfg, rc := res.Cfg, res.RC
	w := buildWorld(rec, func() *scenario.World { return scenario.NewWorld(cfg) })
	if rc.Workers > 0 {
		w.Workers = rc.Workers
	}
	msgs := w.Net.TotalMessages
	rng := rand.New(rand.NewSource(cfg.Seed ^ sampleSeedSalt))
	collector := newCollector(w)
	o := &core.Observatory{World: w, Run: rc}

	var snap scenario.Snapshot
	snapshot := func() { rec.do(layerSnapshot, msgs, func() { snap = w.Snapshot() }) }
	snapshot() // the construction boundary, which epoch 0's deltas start from
	s := res.Schedule.Schedule()
	digests := make([]string, 0, s.Epochs)
	crawlID, day := 0, 0
	for e := 0; e < s.Epochs; e++ {
		if acts := res.Schedule.ActionsAt(e); len(acts) > 0 {
			rec.do(layerApply, msgs, func() {
				for _, act := range acts {
					act.Apply(w)
				}
			})
		}
		observeDays(rec, w, rc, s.DaysPerEpoch, rng, collector, o, &crawlID, &day)
		snapshot()
		digests = append(digests, fmt.Sprintf("%016x", snap.Digest))
	}
	return digests
}

// tracedCLI runs one traced pass of a CLI workload's request. It returns
// the output bytes, or for a timeline the epoch digests one per line.
func tracedCLI(rec *recorder, req core.RunRequest) ([]byte, error) {
	res, err := resolve(rec, req)
	if err != nil {
		return nil, err
	}
	switch res.Mode {
	case experiments.ModeDelta:
		return tracedPaired(rec, res)
	case experiments.ModeTimeline:
		var buf bytes.Buffer
		for _, d := range tracedTimeline(rec, res) {
			fmt.Fprintln(&buf, d)
		}
		return buf.Bytes(), nil
	default:
		return tracedPlain(rec, res)
	}
}

// serveReplay mirrors cmd/tcsb-server's request path in process: a run
// cache with the server's capacity, the fleet's per-run worker share,
// and an archive directory.
type serveReplay struct {
	rec     *recorder
	cache   *runcache.Cache
	perRun  int
	archive string
}

const serverCacheEntries = 256 // tcsb-server's -cache-entries default

func newServeReplay(rec *recorder, perRun int, archive string) *serveReplay {
	return &serveReplay{rec: rec, cache: runcache.New(serverCacheEntries), perRun: perRun, archive: archive}
}

// post handles one POST /v1/runs body as the server does: strict decode,
// resolve with the fleet's worker clamp, cache lookup, and on a miss the
// campaign, the cache fill and the archive write. It returns the
// response bytes and whether they came from the cache.
func (s *serveReplay) post(body []byte) ([]byte, bool, error) {
	rec := s.rec
	var req core.RunRequest
	var err error
	rec.do(layerDecode, nil, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return nil, false, err
	}
	res, err := resolve(rec, req)
	if err != nil {
		return nil, false, err
	}
	workers := s.perRun
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	res.RC.Workers = workers
	if res.Parallel < 1 {
		res.Parallel = 2
	}
	var out []byte
	var hit bool
	rec.do(layerCacheGet, nil, func() { out, hit = s.cache.Get(res.Key) })
	if hit {
		return out, true, nil
	}
	if out, err = tracedPlain(rec, res); err != nil {
		return nil, false, err
	}
	rec.do(layerCachePut, nil, func() { s.cache.Put(res.Key, out) })
	rec.do(layerArchive, nil, func() { err = analyze.WriteArchive(s.archive, res.Key, res.Req, out) })
	return out, false, err
}

// prime is the server's boot path over the archive: every archived run
// re-resolves to its key and primes a fresh cache. It returns the count.
func (s *serveReplay) prime() (int, error) {
	n := 0
	var err error
	s.rec.do(layerPrime, nil, func() {
		var runs []analyze.Run
		if runs, err = analyze.LoadArchive(s.archive); err != nil {
			return
		}
		c := runcache.New(serverCacheEntries)
		for _, run := range runs {
			res, rerr := experiments.Resolve(run.Request)
			if rerr != nil || res.Key != run.Key {
				err = fmt.Errorf("archived run %s no longer resolves to its key", run.Key)
				return
			}
			if c.Prime(run.Key, run.Raw) {
				n++
			}
		}
	})
	return n, err
}
