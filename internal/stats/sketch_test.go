package stats

import (
	"math"
	"testing"

	"tcsb/internal/ids"
)

// sketchStream generates a deterministic sample stream from a SplitMix64
// chain — the same reference-pin style the ids package uses, so these
// vectors are stable across platforms and Go versions.
func sketchStream(seed uint64, n int, scale float64) []float64 {
	out := make([]float64, n)
	state := seed
	for i := range out {
		state = ids.SplitMix64(state)
		out[i] = float64(state>>11) / (1 << 53) * scale
	}
	return out
}

// TestSketchExactSmallInputs pins the exact regime: below the spill
// threshold, every quantile matches Percentile bit for bit.
func TestSketchExactSmallInputs(t *testing.T) {
	var s Sketch
	samples := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	for _, v := range samples {
		s.Observe(v)
	}
	// Pinned reference vector: percentiles of 1..10 under linear
	// interpolation between order statistics.
	want := map[float64]float64{
		0:   1,
		25:  3.25,
		50:  5.5,
		90:  9.1,
		95:  9.549999999999999, // 9.55 up to the interpolation's float rounding
		99:  9.91,
		100: 10,
	}
	for p, exact := range want {
		if got := s.Quantile(p); got != exact {
			t.Errorf("Quantile(%v) = %v, want pinned %v", p, got, exact)
		}
		if got, ref := s.Quantile(p), Percentile(samples, p); got != ref {
			t.Errorf("Quantile(%v) = %v, Percentile = %v — exact regime must match", p, got, ref)
		}
	}
	if s.Count() != 10 || s.Min() != 1 || s.Max() != 10 || s.Sum() != 55 {
		t.Errorf("summary stats: count=%d min=%v max=%v sum=%v", s.Count(), s.Min(), s.Max(), s.Sum())
	}
	if got, want := s.Jitter(), Percentile(samples, 90)-Percentile(samples, 10); got != want {
		t.Errorf("Jitter = %v, want %v", got, want)
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	var s Sketch
	if s.Quantile(50) != 0 || s.Jitter() != 0 || s.Count() != 0 || s.Mean() != 0 {
		t.Error("empty sketch must read as zeros")
	}
	s.Observe(42)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Quantile(p); got != 42 {
			t.Errorf("single-sample Quantile(%v) = %v, want 42", p, got)
		}
	}
	if s.Jitter() != 0 {
		t.Error("single sample has no jitter")
	}
}

// TestSketchBoundedErrorLargeStream drives the spilled regime with 10k
// deterministic samples and pins the relative error of every reported
// percentile against the exact computation.
func TestSketchBoundedErrorLargeStream(t *testing.T) {
	samples := sketchStream(0x1a7e, 10000, 250000) // µs-scale magnitudes
	var s Sketch
	for _, v := range samples {
		s.Observe(v)
	}
	if s.RelativeErrorBound() == 0 {
		t.Fatal("10k samples must have spilled into the bucketed regime")
	}
	bound := s.RelativeErrorBound()
	for _, p := range []float64{10, 50, 90, 95, 99} {
		exact := Percentile(samples, p)
		got := s.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > bound {
			t.Errorf("Quantile(%v) = %v vs exact %v: relative error %v exceeds bound %v",
				p, got, exact, rel, bound)
		}
	}
	if s.Min() != Percentile(samples, 0) || s.Max() != Percentile(samples, 100) {
		t.Error("min/max must stay exact in the spilled regime")
	}
	if s.Count() != 10000 {
		t.Errorf("count = %d, want 10000", s.Count())
	}
}

// TestSketchNonPositiveSamples pins the underflow path: zero-valued
// durations (the net.ideal identity profile) never corrupt quantiles.
func TestSketchNonPositiveSamples(t *testing.T) {
	var s Sketch
	for i := 0; i < 200; i++ {
		s.Observe(0)
	}
	if s.Quantile(50) != 0 || s.Max() != 0 {
		t.Errorf("all-zero stream: p50=%v max=%v, want 0,0", s.Quantile(50), s.Max())
	}
}

// TestSketchQuantileAllocFree pins the lazy-sort fix: after the first
// query sorts the exact buffer in place, repeated queries allocate
// nothing (the old implementation copied and re-sorted per call), and
// a write in between re-sorts exactly once without changing results.
func TestSketchQuantileAllocFree(t *testing.T) {
	var s Sketch
	for _, v := range sketchStream(7, sketchExactCap, 100) {
		s.Observe(v)
	}
	s.Quantile(50) // first query pays the one sort
	if allocs := testing.AllocsPerRun(100, func() {
		s.Quantile(50)
		s.Quantile(99)
		s.Jitter()
	}); allocs != 0 {
		t.Fatalf("repeated exact-regime queries allocate %v per run, want 0", allocs)
	}

	// Interleaved write → the next query must see the new sample.
	var ref []float64
	var s2 Sketch
	for _, v := range sketchStream(11, 10, 100) {
		s2.Observe(v)
		ref = append(ref, v)
	}
	if got, want := s2.Quantile(50), Percentile(ref, 50); got != want {
		t.Fatalf("pre-write query: %v, want %v", got, want)
	}
	s2.Observe(250)
	ref = append(ref, 250)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if got, want := s2.Quantile(p), Percentile(ref, p); got != want {
			t.Fatalf("post-write Quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestSketchQuantileClamps pins the documented contract divergence from
// Percentile: out-of-range p clamps to the edges instead of panicking,
// in both regimes.
func TestSketchQuantileClamps(t *testing.T) {
	exact := &Sketch{}
	for _, v := range sketchStream(3, 20, 50) {
		exact.Observe(v)
	}
	spilled := &Sketch{}
	for _, v := range sketchStream(3, sketchExactCap*4, 50) {
		spilled.Observe(v)
	}
	for name, s := range map[string]*Sketch{"exact": exact, "spilled": spilled} {
		if got, want := s.Quantile(-10), s.Quantile(0); got != want {
			t.Errorf("%s: Quantile(-10) = %v, want clamp to Quantile(0) = %v", name, got, want)
		}
		if got, want := s.Quantile(150), s.Quantile(100); got != want {
			t.Errorf("%s: Quantile(150) = %v, want clamp to Quantile(100) = %v", name, got, want)
		}
		if s.Quantile(0) != s.Min() || s.Quantile(100) != s.Max() {
			t.Errorf("%s: edge quantiles (%v, %v) should be min/max (%v, %v)",
				name, s.Quantile(0), s.Quantile(100), s.Min(), s.Max())
		}
	}
}
