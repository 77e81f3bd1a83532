// Package stats provides the small statistical toolkit the measurement
// pipeline relies on: percentiles, Lorenz/Pareto curves for
// traffic-centralization plots, histograms of categorical data, Zipf
// sampling for content popularity, and confidence intervals for repeated
// randomized experiments (e.g. the random node-removal runs behind Fig. 8).
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of the samples
// using linear interpolation between order statistics. It panics on an
// empty input or out-of-range p: percentiles of nothing are a caller
// bug. (Sketch.Quantile deliberately differs: it clamps out-of-range p
// and returns 0 when empty — it is a render-time summary read, not an
// analysis primitive.)
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("stats: Percentile of empty sample set")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is the interpolation core shared by Percentile and
// Sketch.Quantile: sorted non-empty input, p already in [0,100], no
// copying — which is what makes repeated sketch queries allocation-free.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of the samples, or 0 for empty input.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// StdDev returns the sample standard deviation (n-1 denominator). It
// returns 0 for fewer than two samples.
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	var ss float64
	for _, v := range samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// MeanCI95 returns the mean of the samples together with the half-width of
// a 95% normal-approximation confidence interval. The paper uses exactly
// this to report the band around the 10 random-removal repetitions in
// Fig. 8.
func MeanCI95(samples []float64) (mean, halfWidth float64) {
	mean = Mean(samples)
	if len(samples) < 2 {
		return mean, 0
	}
	se := StdDev(samples) / math.Sqrt(float64(len(samples)))
	return mean, 1.96 * se
}

// ParetoPoint is a point on a "simplified Pareto chart" in the paper's
// sense: the top TopFraction of entities (sorted by descending weight)
// account for WeightFraction of the total weight.
type ParetoPoint struct {
	TopFraction    float64
	WeightFraction float64
}

// Pareto computes the cumulative weight share of entities ranked by
// descending weight. weights need not be sorted; zero and negative weights
// are treated as zero. The result has one point per entity. An empty or
// all-zero input yields nil.
func Pareto(weights []float64) []ParetoPoint {
	if len(weights) == 0 {
		return nil
	}
	w := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	var total float64
	for i, v := range w {
		if v < 0 {
			w[i] = 0
			continue
		}
		total += v
	}
	if total == 0 {
		return nil
	}
	out := make([]ParetoPoint, len(w))
	var cum float64
	n := float64(len(w))
	for i, v := range w {
		if v > 0 {
			cum += v
		}
		out[i] = ParetoPoint{
			TopFraction:    float64(i+1) / n,
			WeightFraction: cum / total,
		}
	}
	return out
}

// ParetoShareAt returns the fraction of total weight held by the top
// `topFraction` of entities, interpolating between Pareto points. This is
// how "the top 5% of peers generate 97% of traffic" style numbers are read
// off the curve.
func ParetoShareAt(points []ParetoPoint, topFraction float64) float64 {
	if len(points) == 0 {
		return 0
	}
	if topFraction <= 0 {
		return 0
	}
	if topFraction >= 1 {
		return points[len(points)-1].WeightFraction
	}
	i := sort.Search(len(points), func(i int) bool { return points[i].TopFraction >= topFraction })
	if i == 0 {
		// Scale the first point's share proportionally.
		return points[0].WeightFraction * topFraction / points[0].TopFraction
	}
	if i == len(points) {
		return points[len(points)-1].WeightFraction
	}
	a, b := points[i-1], points[i]
	if b.TopFraction == a.TopFraction {
		return b.WeightFraction
	}
	frac := (topFraction - a.TopFraction) / (b.TopFraction - a.TopFraction)
	return a.WeightFraction + frac*(b.WeightFraction-a.WeightFraction)
}

// CountItem is one bar of a categorical histogram.
type CountItem struct {
	Label string
	Count float64
}

// SortedByCount returns the items sorted by descending count, breaking
// ties by label for determinism.
func SortedByCount(items []CountItem) []CountItem {
	out := append([]CountItem(nil), items...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// MapToItems converts a map of label→count into a deterministic,
// descending-sorted item slice.
func MapToItems(m map[string]float64) []CountItem {
	items := make([]CountItem, 0, len(m))
	for k, v := range m {
		items = append(items, CountItem{Label: k, Count: v})
	}
	return SortedByCount(items)
}

// ZipfApprox samples from a general Zipf(s) distribution over n items via
// inverse-CDF on precomputed weights: rank r is drawn with probability
// proportional to 1/(r+1)^s, the canonical model for content popularity
// in P2P request workloads. It supports any s > 0, including the
// s ≈ 0.7–1.0 range typical of measured CID popularity.
type ZipfApprox struct {
	cum []float64
}

// NewZipfApprox builds the sampler. O(n) memory; n is the catalogue size.
func NewZipfApprox(s float64, n int) *ZipfApprox {
	if n <= 0 {
		panic("stats: Zipf over non-positive item count")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfApprox{cum: cum}
}

// Draw returns a rank in [0, n) drawn with rng: rank 0 is the most
// popular item. The precomputed weight table is immutable after
// construction, so one sampler can be shared by concurrent shard
// planners that each hold a private RNG stream.
func (z *ZipfApprox) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to its weight. Panics if all weights are zero or negative.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice with no positive weights")
	}
	u := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}
