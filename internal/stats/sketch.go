package stats

import (
	"math"
	"sort"
)

// Sketch is a bounded-memory quantile summary for the latency pipeline:
// phase timings stream in, in fixed lane order, and experiments read
// p50/p90/p95/p99 and jitter at the end — without ever materializing the
// raw timing trace.
//
// The structure is a hybrid: up to sketchExactCap samples are kept
// verbatim (quantiles on small inputs are exact, matching Percentile
// bit for bit), and past that everything spills into a fixed table of
// log-linear buckets (subBuckets per power of two), where quantiles
// carry a bounded relative error of at most 1/subBuckets per lookup.
//
// Bucketization is a pure function of the sample value, so a spilled
// sketch's buckets do not depend on the order its samples arrived in.
//
// The zero Sketch is ready to use. Sketch is not safe for concurrent
// writers; the effect-lane protocol guarantees single-writer access.
type Sketch struct {
	count uint64
	sum   float64
	min   float64
	max   float64
	// exact holds the first samples verbatim. nil once spilled. Kept
	// sorted lazily: exactDirty marks appends since the last sort, and
	// the first quantile query sorts in place — repeated queries are
	// then allocation-free instead of copying and re-sorting each time.
	// (Bucketization on spill is order-independent, so the in-place
	// sort never changes a spilled sketch's buckets.)
	exact      []float64
	exactDirty bool
	// buckets is the log-linear histogram, allocated on spill.
	buckets []uint32
	// underflow counts samples <= 0 or below the smallest bucket.
	underflow uint64
}

const (
	// sketchExactCap bounds the verbatim-sample regime. 64 samples
	// cover every per-phase population the small fixtures produce, so
	// unit-scale quantiles stay exact.
	sketchExactCap = 64
	// subBuckets linearly subdivides each power-of-two octave; the
	// worst-case relative quantile error in the spilled regime is
	// 1/subBuckets (~3%).
	subBuckets = 32
	// minExp/maxExp bound the representable octaves: 2^-21 (~5e-7) up
	// to 2^43 (~8.8e12). Values outside clamp to the edge buckets.
	minExp = -21
	maxExp = 43
)

func numBuckets() int { return (maxExp - minExp) * subBuckets }

// bucketOf maps a positive value to its bucket index. Frexp gives
// v = frac * 2^exp with frac in [0.5, 1); the octave is subdivided
// linearly by frac.
func bucketOf(v float64) int {
	frac, exp := math.Frexp(v)
	if exp < minExp {
		return 0
	}
	if exp >= maxExp {
		return numBuckets() - 1
	}
	sub := int((frac - 0.5) * 2 * subBuckets)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return (exp-minExp)*subBuckets + sub
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(idx int) float64 {
	exp := idx/subBuckets + minExp
	sub := idx % subBuckets
	frac := 0.5 + (float64(sub)+0.5)/(2*subBuckets)
	return math.Ldexp(frac, exp)
}

// Observe adds one sample.
func (s *Sketch) Observe(v float64) {
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.count++
	s.sum += v
	if s.buckets == nil && len(s.exact) < sketchExactCap {
		s.exact = append(s.exact, v)
		s.exactDirty = true
		return
	}
	s.spill()
	s.bucketize(v)
}

// spill converts the exact buffer into bucket counts (idempotent).
func (s *Sketch) spill() {
	if s.buckets != nil {
		return
	}
	s.buckets = make([]uint32, numBuckets())
	for _, v := range s.exact {
		s.bucketize(v)
	}
	s.exact = nil
}

func (s *Sketch) bucketize(v float64) {
	if v <= 0 {
		s.underflow++
		return
	}
	s.buckets[bucketOf(v)]++
}

// Count returns the number of samples observed.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the running total of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Min returns the smallest sample (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Quantile returns the p-th percentile. In the exact regime it matches
// Percentile; in the spilled regime it returns the midpoint of the
// bucket holding the target rank (relative error is bounded by the
// bucket width, ~1/subBuckets), with min/max returned exactly at the
// edges.
//
// Contract differences from the free function Percentile, pinned by
// tests: an empty sketch returns 0 (no panic), and p outside [0,100]
// clamps to the nearest edge (no panic) — a sketch query is a summary
// read at render time, where a degenerate input should yield the edge
// statistic rather than take down a report.
//
// Queries sort the exact buffer in place on first use after a write, so
// like writes they require single-goroutine access (the effect-lane
// protocol already guarantees it); repeated queries allocate nothing.
func (s *Sketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if s.buckets == nil {
		if s.exactDirty {
			sort.Float64s(s.exact)
			s.exactDirty = false
		}
		return percentileSorted(s.exact, p)
	}
	if p == 0 {
		return s.min
	}
	if p == 100 {
		return s.max
	}
	// Rank in [0, count): the sample index the percentile falls on.
	rank := uint64(p / 100 * float64(s.count-1))
	if rank < s.underflow {
		return s.min
	}
	cum := s.underflow
	for i, c := range s.buckets {
		cum += uint64(c)
		if rank < cum {
			return bucketMid(i)
		}
	}
	return s.max
}

// Jitter summarizes spread as the p90−p10 inter-percentile range, the
// stable jitter figure the latency experiments report alongside the
// percentile ladder.
func (s *Sketch) Jitter() float64 {
	if s.count < 2 {
		return 0
	}
	return s.Quantile(90) - s.Quantile(10)
}

// RelativeErrorBound is the worst-case relative quantile error of the
// spilled regime; tests and the equivalence invariant pin against it.
func (s *Sketch) RelativeErrorBound() float64 {
	if s.buckets == nil {
		return 0
	}
	return 1.0 / subBuckets
}
