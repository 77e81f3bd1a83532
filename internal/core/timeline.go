package core

// The longitudinal campaign runner: RunTimeline drives one evolving
// world through a compiled timeline.Schedule — epochs of simulated
// days with scheduled interventions and population drift firing at
// epoch boundaries — and folds each epoch into an EpochStats row. The
// per-epoch observation reuses the campaign machinery exactly: sharded
// world ticks and crawls on the RunConfig.Workers pool, daily Bitswap
// CID samples collected into provider records, and the vantage points'
// streaming sinks. An epoch's crawls and provider records are dropped
// at its end boundary, once its row is built, and its activity is read
// as deltas of the bounded accumulators; memory grows only with the
// live world (its catalogue, the accumulators' distinct identifiers),
// not with the epoch count. Every dataset is byte-identical for every
// Workers value.

import (
	"tcsb/internal/churn"
	"tcsb/internal/crawler"
	"tcsb/internal/provrecords"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// EpochStats is one epoch's row of a timeline run: the events that
// fired at its start, the world's population and content shape at its
// end, the vantage and network activity *during* it (deltas of the
// streaming accumulators), its crawl aggregates, and the state digest
// pinning the boundary.
type EpochStats struct {
	Epoch int
	Days  int
	// Fired lists the labels of schedule actions applied at this epoch's
	// start, in application order (empty for quiet epochs).
	Fired []string

	// Population at epoch end.
	Online, OnlineCloud, OnlineNonCloud int
	Servers, Clients, PinnedOffline     int

	// Content and provider-record ledger at epoch end.
	CatalogSize, LiveCIDs int
	RecordsStored         int64

	// Activity during the epoch.
	HydraEvents, HydraDownload, HydraAdvertise int64
	MonitorEvents                              int64
	RPCs                                       int64
	CollectedCIDs                              int

	// Crawls during the epoch.
	Crawls                        int
	MeanDiscovered, MeanCrawlable float64
	CrawlPeers                    int
	MeanUptime                    float64

	// Digest is the scenario.Snapshot digest at the epoch's end boundary.
	Digest uint64
}

// TimelineResult is a finished timeline run: one row per epoch of the
// schedule and the world those epochs evolved.
type TimelineResult struct {
	// Spec is the canonical schedule spec the run followed.
	Spec string
	// Schedule is its declarative form (for headers and labels).
	Schedule timeline.Schedule
	Epochs   []EpochStats
	// World is the evolved world at the schedule's end.
	World *scenario.World
}

// TimelineOptions holds RunTimeline's hooks; the zero value sets none.
type TimelineOptions struct {
	// OnEpoch, if non-nil, is called at every epoch's end boundary, on
	// the serial path, with the live world — the attachment point of the
	// epoch-boundary invariant suite.
	OnEpoch func(epoch int, w *scenario.World)
}

// RunTimeline builds the world from cfg and runs every epoch of the
// schedule on it.
func RunTimeline(cfg scenario.Config, rc RunConfig, sch *timeline.Compiled, opt TimelineOptions) *TimelineResult {
	s := sch.Schedule()
	w := scenario.NewWorld(cfg)
	tr := &TimelineResult{Spec: sch.Spec(), Schedule: s, World: w}
	// The day loop appends to the current epoch's datasets only; they
	// are emptied at every boundary.
	var crawls crawler.Series
	var records provrecords.Collection
	days := newDayLoop(w, rc, &crawls, &records)
	// Epoch activity is reported as deltas between boundary snapshots;
	// the initial boundary is the freshly built world, so construction
	// traffic (initial Provide walks) never pollutes epoch 0's row.
	prev := w.Snapshot()

	for e := 0; e < s.Epochs; e++ {
		crawls, records = crawler.Series{}, provrecords.Collection{}
		fired := sch.LabelsAt(e)
		for _, act := range sch.ActionsAt(e) {
			act.Apply(w)
		}
		collected := days.run(s.DaysPerEpoch)
		snap := w.Snapshot()
		if opt.OnEpoch != nil {
			opt.OnEpoch(e, w)
		}
		tr.Epochs = append(tr.Epochs, buildEpochStats(e, s.DaysPerEpoch, fired, w, snap, prev, &crawls, collected))
		prev = snap
	}
	return tr
}

// buildEpochStats folds one finished epoch into its row. Activity
// fields are deltas of cumulative counters between the epoch's two
// boundary snapshots (the construction-time snapshot for epoch 0);
// crawl fields read the epoch's own series.
func buildEpochStats(epoch, days int, fired []string, w *scenario.World,
	snap, prev scenario.Snapshot, series *crawler.Series, collected int) EpochStats {

	es := EpochStats{
		Epoch:          epoch,
		Days:           days,
		Fired:          fired,
		Online:         snap.Online,
		Servers:        snap.Servers,
		Clients:        snap.Clients,
		PinnedOffline:  snap.PinnedOffline,
		CatalogSize:    snap.CatalogSize,
		LiveCIDs:       snap.LiveCIDs,
		RecordsStored:  snap.RecordsStored,
		HydraEvents:    int64(snap.HydraEvents - prev.HydraEvents),
		HydraDownload:  snap.HydraDownload - prev.HydraDownload,
		HydraAdvertise: snap.HydraAdvert - prev.HydraAdvert,
		MonitorEvents:  int64(snap.MonitorEvents - prev.MonitorEvents),
		RPCs:           snap.TotalRPCs - prev.TotalRPCs,
		CollectedCIDs:  collected,
		Digest:         snap.Digest,
	}
	for _, id := range w.ServerIDs() {
		if a := w.Actors[id]; a != nil && a.Online {
			if a.Cloud {
				es.OnlineCloud++
			} else {
				es.OnlineNonCloud++
			}
		}
	}
	for _, id := range w.ClientIDs() {
		if a := w.Actors[id]; a != nil && a.Online {
			es.OnlineNonCloud++
		}
	}

	es.Crawls = series.Len()
	if es.Crawls > 0 {
		es.MeanDiscovered = series.MeanDiscovered()
		es.MeanCrawlable = series.MeanCrawlable()
		peers := churn.Analyze(series)
		es.CrawlPeers = len(peers)
		if len(peers) > 0 {
			var up float64
			for _, p := range peers {
				up += p.Uptime()
			}
			es.MeanUptime = up / float64(len(peers))
		}
	}
	return es
}
