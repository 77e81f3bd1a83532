package netsim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestOrderedFanout pins the one worker pool every concurrent stage runs
// on: ParallelFor and Fanout run each index exactly once for any worker
// count, and Fanout applies the lanes' deferred effects in index order,
// whatever order the indices ran in.
func TestOrderedFanout(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 5, 100} {
			workers, n := workers, n
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				ParallelFor(workers, n, func(i int) { runs[i].Add(1) })
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("ParallelFor ran index %d %d times, want once", i, got)
					}
				}

				lanes := make([]atomic.Int32, n)
				var applied []int
				New().Fanout(workers, n, func(i int, env *Effects) {
					lanes[i].Add(1)
					env.Defer(func() { applied = append(applied, i) })
				})
				for i := range lanes {
					if got := lanes[i].Load(); got != 1 {
						t.Errorf("Fanout ran index %d %d times, want once", i, got)
					}
				}
				if len(applied) != n {
					t.Fatalf("Fanout applied %d deferred effects, want %d", len(applied), n)
				}
				for i, got := range applied {
					if got != i {
						t.Fatalf("Fanout applied lane %d at position %d: merge is not in index order", got, i)
					}
				}
			})
		}
	}
}
