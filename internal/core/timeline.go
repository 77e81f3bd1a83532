package core

// The longitudinal campaign runner: RunTimeline drives one evolving
// world through a compiled timeline.Schedule — epochs of simulated
// days with scheduled interventions and population drift firing at
// epoch boundaries — and folds each epoch into an EpochStats row. The
// per-epoch observation reuses the campaign machinery exactly: sharded
// world ticks and crawls on the RunConfig.Workers pool, daily Bitswap
// CID samples collected into provider records, and the vantage points'
// streaming sinks (per-epoch activity is read as deltas of the bounded
// accumulators, so a 14-epoch run costs no more memory than a 1-epoch
// one). Every dataset is byte-identical for every Workers value.
//
// Warm starts: TimelineOptions.Until stops at an epoch boundary and
// hands back a timeline.Checkpoint pinning the world's
// scenario.Snapshot; TimelineOptions.Resume replays the prefix
// deterministically, verifies the replayed snapshot against the
// checkpoint, and continues. A spliced (prefix + resumed) result
// renders byte-identically to a straight-through run — the property
// TestTimelineWorkerDeterminism pins.

import (
	"fmt"

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

// TimelineResult is a finished (or checkpointed) timeline run. Epochs
// holds only the rows from From onward: a resumed run reports the
// epochs it executed live, and splicing a prefix's rows with a resumed
// run's reproduces the straight-through result exactly.
type TimelineResult struct {
	// Spec is the canonical schedule spec the run followed.
	Spec string
	// Schedule is its declarative form (for headers and labels).
	Schedule timeline.Schedule
	// From is the first epoch reported in Epochs.
	From   int
	Epochs []EpochStats
	// Final is the warm-start checkpoint at the boundary the run
	// stopped at (schedule end for full runs).
	Final timeline.Checkpoint
	// Crawls and Records are the run's full longitudinal datasets
	// (replayed portions included, so a resumed run still carries
	// complete series).
	Crawls  crawler.Series
	Records provrecords.Collection
	// World is the evolved world at the stop boundary.
	World *scenario.World
}

// TimelineOptions selects the stretch of a schedule RunTimeline runs.
// The zero value runs the whole schedule from epoch 0.
type TimelineOptions struct {
	// Resume continues a checkpointed run. The prefix
	// [0, Resume.EpochsDone) is replayed deterministically (restore is
	// replay-based: RNG state is opaque, world evolution is a pure
	// function of config and schedule) and the replayed world's snapshot
	// is verified against the checkpoint before the live epochs run — a
	// mismatched config, schedule or engine change fails here instead of
	// silently diverging.
	Resume *timeline.Checkpoint
	// Until stops the run at that epoch boundary; the returned Final
	// checkpoint resumes the remainder. 0 means the schedule's end.
	Until int
	// OnEpoch, if non-nil, is called at every epoch's end boundary,
	// replayed ones included, on the serial path, with the live world —
	// the attachment point of the epoch-boundary invariant suite.
	OnEpoch func(epoch int, w *scenario.World)
}

// RunTimeline runs the schedule's epochs [0, Until), reporting rows from
// the resume checkpoint's epoch onward. The error path covers options
// that do not fit the schedule and a checkpoint that fails verification;
// callers must handle it rather than panic, so the library never traps
// across the CLI or server API boundary.
func RunTimeline(cfg scenario.Config, rc RunConfig, sch *timeline.Compiled, opt TimelineOptions) (*TimelineResult, error) {
	s := sch.Schedule()
	to := s.Epochs
	if opt.Until != 0 {
		to = opt.Until
	}
	if to < 1 || to > s.Epochs {
		return nil, fmt.Errorf("core: timeline Until %d outside [1, %d] (0 means the schedule end)", opt.Until, s.Epochs)
	}
	from := 0
	verify := opt.Resume
	if verify != nil {
		if verify.Spec != sch.Spec() {
			return nil, fmt.Errorf("core: checkpoint is for schedule %q, not %q", verify.Spec, sch.Spec())
		}
		if verify.Seed != cfg.Seed {
			return nil, fmt.Errorf("core: checkpoint is for seed %d, not %d", verify.Seed, cfg.Seed)
		}
		if verify.EpochsDone < 1 || verify.EpochsDone > to {
			return nil, fmt.Errorf("core: checkpoint at epoch %d outside [1, %d]", verify.EpochsDone, to)
		}
		from = verify.EpochsDone
	}

	w := scenario.NewWorld(cfg)
	tr := &TimelineResult{Spec: sch.Spec(), Schedule: s, From: from, World: w}
	days := newDayLoop(w, rc, &tr.Crawls, &tr.Records)
	// Epoch activity is reported as deltas between boundary snapshots;
	// the initial boundary is the freshly built world, so construction
	// traffic (initial Provide walks) never pollutes epoch 0's row.
	prev := w.Snapshot()

	for e := 0; e < to; e++ {
		if e == from && verify != nil {
			got := w.Snapshot()
			if diff := got.Diff(verify.State); diff != "" {
				return nil, fmt.Errorf("core: resume verification failed at epoch %d: replayed world diverges from checkpoint (%s)", from, diff)
			}
		}
		fired := sch.LabelsAt(e)
		for _, act := range sch.ActionsAt(e) {
			act.Apply(w)
		}
		crawlLo := len(tr.Crawls.Snapshots)
		collected := days.run(s.DaysPerEpoch)
		snap := w.Snapshot()
		if opt.OnEpoch != nil {
			opt.OnEpoch(e, w)
		}
		if e >= from {
			tr.Epochs = append(tr.Epochs, buildEpochStats(e, s.DaysPerEpoch, fired, w, snap, prev, &tr.Crawls, crawlLo, collected))
		}
		prev = snap
	}
	// An end-of-run checkpoint (from == to) never hits the in-loop
	// verification; check it against the fully replayed world here, so a
	// tampered final checkpoint is refused like any other.
	if verify != nil && from == to {
		if diff := prev.Diff(verify.State); diff != "" {
			return nil, fmt.Errorf("core: resume verification failed at epoch %d: replayed world diverges from checkpoint (%s)", from, diff)
		}
	}
	tr.Final = timeline.Checkpoint{Spec: sch.Spec(), Seed: cfg.Seed, EpochsDone: to, State: prev}
	return tr, nil
}

// buildEpochStats folds one finished epoch into its row. Activity
// fields are deltas of cumulative counters between the epoch's two
// boundary snapshots (the construction-time snapshot for epoch 0).
func buildEpochStats(epoch, days int, fired []string, w *scenario.World,
	snap, prev scenario.Snapshot, series *crawler.Series, crawlLo, collected int) EpochStats {

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

	snaps := series.Snapshots[crawlLo:]
	es.Crawls = len(snaps)
	if len(snaps) > 0 {
		var disc, crawlable int
		for _, sn := range snaps {
			disc += sn.Discovered()
			crawlable += sn.Crawlable()
		}
		es.MeanDiscovered = float64(disc) / float64(len(snaps))
		es.MeanCrawlable = float64(crawlable) / float64(len(snaps))
		peers := churn.AnalyzeWindow(series, crawlLo, len(series.Snapshots))
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
