package trace

import (
	"testing"

	"tcsb/internal/netsim"
)

// TestTimingSinkLaneOrder pins the determinism contract: samples folded
// through lanes merge in lane order, so quantiles equal a serial fold
// of the same per-lane sequences.
func TestTimingSinkLaneOrder(t *testing.T) {
	n := netsim.New()
	fold := func(workers int) *TimingSink {
		sink := NewTimingSink(false)
		n.Fanout(workers, 4, func(ti int, env *netsim.Effects) {
			for i := 0; i < 10; i++ {
				sink.Record(env, PhaseGateway, int64(1000*(ti+1)+i))
				sink.Record(env, PhaseCrawl, int64(50*(ti+1)))
			}
		})
		return sink
	}
	a, b := fold(1), fold(4)
	for _, p := range Phases() {
		sa, sb := a.Sketch(p), b.Sketch(p)
		if sa.Count() != sb.Count() || sa.Sum() != sb.Sum() {
			t.Fatalf("phase %s: lane fold differs across workers: count %d/%d sum %v/%v",
				p, sa.Count(), sb.Count(), sa.Sum(), sb.Sum())
		}
		for _, q := range []float64{50, 90, 99} {
			if sa.Quantile(q) != sb.Quantile(q) {
				t.Fatalf("phase %s: q%v differs across workers", p, q)
			}
		}
	}
	if a.Sketch(PhaseGateway).Count() != 40 || a.Sketch(PhaseLookup).Count() != 0 {
		t.Fatal("samples landed in the wrong phase")
	}
}

// TestTimingSinkSerialAndRetention covers the serial path, retention,
// and nil-sink tolerance.
func TestTimingSinkSerialAndRetention(t *testing.T) {
	s := NewTimingSink(true)
	s.Record(nil, PhaseProbe, 500)
	s.Record(nil, PhaseProbe, 1500)
	if got := s.Sketch(PhaseProbe).Count(); got != 2 {
		t.Fatalf("serial records = %d, want 2", got)
	}
	if raw := s.Raw(PhaseProbe); len(raw) != 2 || raw[0] != 500 || raw[1] != 1500 {
		t.Fatalf("retained raw samples = %v", raw)
	}
	lean := NewTimingSink(false)
	lean.Record(nil, PhaseProbe, 1)
	if lean.Raw(PhaseProbe) != nil {
		t.Fatal("non-retaining sink kept raw samples")
	}

	var nilSink *TimingSink
	nilSink.Record(nil, PhaseGateway, 1) // must not panic
	if nilSink.Sketch(PhaseGateway).Count() != 0 || nilSink.Raw(PhaseGateway) != nil {
		t.Fatal("nil sink must read as empty")
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"gateway", "lookup", "crawl", "probe"}
	for i, p := range Phases() {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p, want[i])
		}
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase must render as unknown")
	}
}
