package trace

import "tcsb/internal/stats"

// paretoShare sorts weights descending and reads off the cumulative share
// at the given top fraction via the stats package.
func paretoShare(weights []float64, topFraction float64) float64 {
	return stats.ParetoShareAt(stats.Pareto(weights), topFraction)
}

// Seq streams (entity, weight) pairs, push-style. The Accum activity
// iterators (EachPeerActivity, EachIPActivity) satisfy it directly, so
// the Pareto analyses below consume the accumulator's columnar state
// without materializing an intermediate map per figure. Emission order
// is irrelevant: every consumer either sorts or sums.
type Seq[K comparable] func(yield func(K, int64))

// TopShare returns the fraction of total traffic generated by the
// most active `topFraction` of entities in the stream — the "top 5% of
// peer IDs generate 97% of traffic" readings of Figs. 10/11.
func TopShare[K comparable](activity Seq[K], topFraction float64) float64 {
	var weights []float64
	activity(func(_ K, v int64) { weights = append(weights, float64(v)) })
	return paretoShare(weights, topFraction)
}

// GroupTrafficShare returns, for each subgroup, the fraction of total
// traffic its members generate (e.g. cloud IPs generating ~85% of DHT
// traffic in Fig. 11). Weights are integer-valued, so the float sums are
// exact and emission order cannot change the result.
func GroupTrafficShare[K comparable](activity Seq[K], group func(K) string) map[string]float64 {
	shares := make(map[string]float64)
	var total float64
	activity(func(k K, v int64) {
		shares[group(k)] += float64(v)
		total += float64(v)
	})
	if total == 0 {
		return shares
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares
}

// GroupMemberShare returns, for each subgroup, the fraction of
// *entities* (not traffic) that belong to it — the population
// counterpart used to contrast "similar in number, much less active"
// (non-cloud nodes in Fig. 11).
func GroupMemberShare[K comparable](activity Seq[K], group func(K) string) map[string]float64 {
	shares := make(map[string]float64)
	var total float64
	activity(func(k K, _ int64) {
		shares[group(k)]++
		total++
	})
	if total == 0 {
		return shares
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares
}
