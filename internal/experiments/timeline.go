package experiments

// The longitudinal (timeline.*) catalog: experiments that derive
// epoch-by-epoch views from a core.TimelineResult — the per-epoch rows
// a multi-epoch evolving world produces. Entries run only under
// RunTimeline; every table carries an explicit epoch column (and the
// JSONL stream tags each row with the canonical schedule spec), so the
// output of two different schedules is never confusable.
//
// Each entry is a pure function of the TimelineResult's schedule and
// EpochStats rows alone; none reads the evolved world.

import (
	"fmt"
	"strings"

	"tcsb/internal/core"
	"tcsb/internal/report"
)

func init() {
	Register(Experiment{
		Name:        "timeline.schedule",
		Section:     "timeline",
		Description: "the executed schedule: epochs, days per epoch, fired events",
		Timeline:    timelineSchedule,
	})
	Register(Experiment{
		Name:        "timeline.population",
		Section:     "timeline §3/§4",
		Description: "per-epoch population drift: online actors, cloud split, pinned outages",
		Timeline:    timelinePopulation,
	})
	Register(Experiment{
		Name:        "timeline.content",
		Section:     "timeline §6",
		Description: "per-epoch content lifecycle: catalogue, live CIDs, provider-record ledger",
		Timeline:    timelineContent,
	})
	Register(Experiment{
		Name:        "timeline.vantage",
		Section:     "timeline §5",
		Description: "per-epoch vantage activity: hydra class mix deltas, monitor events, RPCs",
		Timeline:    timelineVantage,
	})
	Register(Experiment{
		Name:        "timeline.crawl",
		Section:     "timeline §3, Fig. 4/9",
		Description: "per-epoch crawl view: discovered/crawlable means, peers seen, uptime",
		Timeline:    timelineCrawl,
	})
	Register(Experiment{
		Name:        "timeline.digest",
		Section:     "timeline (engine)",
		Description: "per-epoch state digests: a fingerprint of every evolving world field at each boundary",
		Timeline:    timelineDigest,
	})
}

// RunTimeline executes the named timeline experiments (empty = all
// timeline.*) over a finished longitudinal run on at most parallel
// workers, heading the stream with the executed-schedule table and
// tagging every result with the canonical spec. Results are pure
// functions of the EpochStats rows, so output is byte-identical across
// parallel (and campaign worker) settings.
func RunTimeline(tr *core.TimelineResult, names []string, parallel int) ([]Result, error) {
	exps, err := SelectFor(names, ModeTimeline)
	if err != nil {
		return nil, err
	}
	results := runPool(exps, parallel, func(e Experiment) []*report.Table {
		return e.Timeline(tr)
	})
	for i := range results {
		results[i].Timeline = tr.Spec
	}
	return results, nil
}

// fired renders an epoch's fired-event labels ("-" for quiet epochs).
func fired(labels []string) string {
	if len(labels) == 0 {
		return "-"
	}
	return strings.Join(labels, ",")
}

func timelineSchedule(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — executed schedule",
		Columns: []string{"field", "value"},
	}
	t.AddRow("spec", tr.Spec)
	t.AddRow("epochs", tr.Schedule.Epochs)
	t.AddRow("days/epoch", tr.Schedule.DaysPerEpoch)
	// Always 0 since every run reports every epoch; the row stays
	// because removing it would move pinned bytes under unchanged keys.
	t.AddRow("reported from epoch", 0)
	for _, e := range tr.Schedule.Events {
		t.AddRow(fmt.Sprintf("event @%d", e.Epoch), e.Label())
	}
	return []*report.Table{t}
}

func timelinePopulation(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — population drift per epoch",
		Columns: []string{"epoch", "fired", "online", "cloud", "non-cloud", "servers", "clients", "pinned-off"},
	}
	for _, e := range tr.Epochs {
		t.AddRow(e.Epoch, fired(e.Fired), e.Online, e.OnlineCloud, e.OnlineNonCloud,
			e.Servers, e.Clients, e.PinnedOffline)
	}
	return []*report.Table{t}
}

func timelineContent(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — content lifecycle per epoch",
		Columns: []string{"epoch", "catalogue", "live CIDs", "records stored", "sampled CIDs"},
	}
	for _, e := range tr.Epochs {
		t.AddRow(e.Epoch, e.CatalogSize, e.LiveCIDs, e.RecordsStored, e.CollectedCIDs)
	}
	return []*report.Table{t}
}

func timelineVantage(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — vantage activity per epoch (deltas)",
		Columns: []string{"epoch", "hydra events", "download", "advertise", "monitor events", "RPCs"},
	}
	for _, e := range tr.Epochs {
		t.AddRow(e.Epoch, e.HydraEvents, e.HydraDownload, e.HydraAdvertise, e.MonitorEvents, e.RPCs)
	}
	return []*report.Table{t}
}

func timelineCrawl(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — crawl view per epoch",
		Columns: []string{"epoch", "crawls", "mean discovered", "mean crawlable", "peers seen", "mean uptime"},
	}
	for _, e := range tr.Epochs {
		t.AddRow(e.Epoch, e.Crawls,
			fmt.Sprintf("%.1f", e.MeanDiscovered),
			fmt.Sprintf("%.1f", e.MeanCrawlable),
			e.CrawlPeers, report.Pct(e.MeanUptime))
	}
	return []*report.Table{t}
}

func timelineDigest(tr *core.TimelineResult) []*report.Table {
	t := &report.Table{
		Title:   "Timeline — epoch boundary digests",
		Columns: []string{"epoch", "fired", "digest"},
	}
	for _, e := range tr.Epochs {
		t.AddRow(e.Epoch, fired(e.Fired), fmt.Sprintf("%016x", e.Digest))
	}
	return []*report.Table{t}
}
