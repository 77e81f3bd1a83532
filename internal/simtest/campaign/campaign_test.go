package campaign

import (
	"testing"

	"tcsb/internal/core"
)

// smallObservatory returns the process-cached small campaign for the
// seed, built once with the given worker-pool size.
func smallObservatory(seed int64, workers int) *core.Observatory {
	return cachedObservatory("small", seed, workers, SmallConfig(seed), SmallRunConfig())
}

// smallRetainedObservatory is smallObservatory with
// scenario.Config.RetainTrace on: the raw vantage logs exist alongside
// the streaming statistics, which event-by-event comparisons need.
func smallRetainedObservatory(seed int64, workers int) *core.Observatory {
	cfg := SmallConfig(seed)
	cfg.RetainTrace = true
	return cachedObservatory("small-retained", seed, workers, cfg, SmallRunConfig())
}

func TestObservatoryFixtureCachesPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds observation campaigns")
	}
	a := smallObservatory(3, 1)
	if b := smallObservatory(3, 1); b != a {
		t.Error("same key rebuilt the fixture")
	}
	if c := smallObservatory(4, 1); c == a {
		t.Error("different seed returned the cached fixture")
	}
}

// TestObservatoryFixtureWorkerIndependence is the dataset-level half of
// the determinism contract: the same seed observed with 1 and with 4
// workers yields identical datasets (the experiments package asserts
// the rendered-output half).
func TestObservatoryFixtureWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two observation campaigns")
	}
	// Retained fixtures: the event-by-event comparison below needs the
	// raw logs, which streaming campaigns deliberately do not keep.
	serial := smallRetainedObservatory(3, 1)
	pooled := smallRetainedObservatory(3, 4)
	if serial == pooled {
		t.Fatal("distinct worker counts must build distinct fixtures")
	}
	hydra, hydraP := serial.World.Hydra.Log(), pooled.World.Hydra.Log()
	if len(hydra.Events()) != len(hydraP.Events()) {
		t.Fatalf("hydra logs differ: %d vs %d", len(hydra.Events()), len(hydraP.Events()))
	}
	for i, e := range hydra.Events() {
		if e != hydraP.Events()[i] {
			t.Fatalf("hydra log event %d differs", i)
		}
	}
	if a, b := serial.Crawls.UniquePeers(), pooled.Crawls.UniquePeers(); a != b {
		t.Fatalf("crawl series differ: %d vs %d unique peers", a, b)
	}
	records := func(o *core.Observatory) int {
		n := 0
		for _, cr := range o.Records.PerCID {
			n += len(cr.Records)
		}
		return n
	}
	if a, b := records(serial), records(pooled); a != b {
		t.Fatalf("record collections differ: %d vs %d", a, b)
	}
	if a, b := serial.World.Net.TotalMessages(), pooled.World.Net.TotalMessages(); a != b {
		t.Fatalf("traffic differs: %d vs %d RPCs", a, b)
	}
	mon, monP := serial.World.Monitor.Log(), pooled.World.Monitor.Log()
	if len(mon.Events()) != len(monP.Events()) {
		t.Fatalf("monitor logs differ: %d vs %d", len(mon.Events()), len(monP.Events()))
	}
	for i, e := range mon.Events() {
		if e != monP.Events()[i] {
			t.Fatalf("monitor event %d differs", i)
		}
	}
}
