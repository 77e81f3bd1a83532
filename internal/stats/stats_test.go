package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if got := Percentile(s, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(s, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(s, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := Percentile(s, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(empty) did not panic")
		}
	}()
	Percentile(nil, 50)
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(s); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of this classic set is ~2.138.
	if got := StdDev(s); !almostEq(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of single sample should be 0")
	}
}

func TestMeanCI95(t *testing.T) {
	m, hw := MeanCI95([]float64{10, 10, 10, 10})
	if m != 10 || hw != 0 {
		t.Errorf("constant samples: mean=%v hw=%v, want 10, 0", m, hw)
	}
	m, hw = MeanCI95([]float64{0, 10})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if hw <= 0 {
		t.Error("CI half-width should be positive for varying samples")
	}
}

func TestParetoUniform(t *testing.T) {
	// Equal weights: top x% holds x% of weight.
	pts := Pareto([]float64{1, 1, 1, 1})
	for _, p := range pts {
		if !almostEq(p.TopFraction, p.WeightFraction, 1e-12) {
			t.Errorf("uniform pareto point %+v not on diagonal", p)
		}
	}
}

func TestParetoExtreme(t *testing.T) {
	// One entity holds everything.
	pts := Pareto([]float64{100, 0, 0, 0})
	if !almostEq(pts[0].WeightFraction, 1, 1e-12) {
		t.Errorf("top entity share = %v, want 1", pts[0].WeightFraction)
	}
	if got := ParetoShareAt(pts, 0.25); !almostEq(got, 1, 1e-12) {
		t.Errorf("ParetoShareAt(0.25) = %v, want 1", got)
	}
}

func TestParetoShareAtInterpolation(t *testing.T) {
	pts := Pareto([]float64{3, 1})
	// Top 50% (1 of 2 entities) holds 0.75.
	if got := ParetoShareAt(pts, 0.5); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("share at 0.5 = %v, want 0.75", got)
	}
	// Interpolated quarter-way point.
	if got := ParetoShareAt(pts, 0.25); !almostEq(got, 0.375, 1e-12) {
		t.Errorf("share at 0.25 = %v, want 0.375", got)
	}
	if got := ParetoShareAt(pts, 1.0); !almostEq(got, 1, 1e-12) {
		t.Errorf("share at 1.0 = %v, want 1", got)
	}
	if got := ParetoShareAt(pts, 0); got != 0 {
		t.Errorf("share at 0 = %v, want 0", got)
	}
}

func TestParetoEmptyAndZero(t *testing.T) {
	if Pareto(nil) != nil {
		t.Error("Pareto(nil) should be nil")
	}
	if Pareto([]float64{0, 0}) != nil {
		t.Error("Pareto(all-zero) should be nil")
	}
}

func TestParetoMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var any bool
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				any = true
			}
		}
		pts := Pareto(w)
		if !any {
			return pts == nil
		}
		prev := ParetoPoint{0, 0}
		for _, p := range pts {
			if p.TopFraction < prev.TopFraction || p.WeightFraction < prev.WeightFraction-1e-12 {
				return false
			}
			prev = p
		}
		return almostEq(prev.WeightFraction, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapToItemsDeterministic(t *testing.T) {
	m := map[string]float64{"x": 1, "y": 1, "z": 2}
	a := MapToItems(m)
	b := MapToItems(m)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MapToItems order not deterministic")
		}
	}
	if a[0].Label != "z" {
		t.Errorf("largest item first, got %+v", a)
	}
	if a[1].Label != "x" || a[2].Label != "y" {
		t.Errorf("ties should break by label: %+v", a)
	}
}

func TestZipfApproxSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfApprox(1.0, 1000)
	counts := make([]int, 1000)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d draws) should beat rank 10 (%d)", counts[0], counts[10])
	}
	// Rank 0 of Zipf(1.0, 1000) has probability ~1/H(1000) ≈ 0.133.
	frac := float64(counts[0]) / draws
	if frac < 0.09 || frac > 0.19 {
		t.Errorf("rank-0 frequency %v outside plausible band", frac)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[WeightedChoice(rng, []float64{1, 0, 9})]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 7 || ratio > 12 {
		t.Errorf("weight-9 to weight-1 draw ratio %v, want ~9", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WeightedChoice(all zero) did not panic")
		}
	}()
	WeightedChoice(rand.New(rand.NewSource(1)), []float64{0, 0})
}

func BenchmarkPareto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 10000)
	for i := range w {
		w[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pareto(w)
	}
}

func BenchmarkZipfApproxDraw(b *testing.B) {
	z := NewZipfApprox(0.9, 100000)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw(rng)
	}
}
