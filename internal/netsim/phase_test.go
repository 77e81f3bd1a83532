package netsim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"tcsb/internal/ids"
)

// recorder is a fake for every typed deferred op: each instance appends
// its name and the payload it is applied with to a shared log.
type recorder struct {
	log  *[]string
	name string
}

func (r recorder) LearnContact(from ids.PeerID) {
	*r.log = append(*r.log, r.name+" learn "+from.Short())
}

func (r recorder) PutProvider(c ids.CID, rec ProviderRecord) {
	*r.log = append(*r.log, r.name+" put "+c.String()+" "+rec.Provider.ID.Short())
}

func (r recorder) EnqueueLookup(c ids.CID) {
	*r.log = append(*r.log, r.name+" lookup "+c.String())
}

// emitMixed issues lane i's interleaving of closures and typed ops into
// log through env; a nil env applies them on the spot.
func emitMixed(env *Effects, log *[]string, i int) {
	for j := 0; j < 3+i%5; j++ {
		r := recorder{log, fmt.Sprintf("%d.%d", i, j)}
		seed := uint64(i<<8 | j)
		switch (i + j) % 4 {
		case 0:
			env.Defer(func() { *log = append(*log, r.name+" defer") })
		case 1:
			env.DeferLearn(r, ids.PeerIDFromSeed(seed))
		case 2:
			env.DeferProviderPut(r, ids.CIDFromSeed(seed), ProviderRecord{Provider: PeerInfo{ID: ids.PeerIDFromSeed(seed)}})
		case 3:
			env.DeferLookup(r, ids.CIDFromSeed(seed))
		}
	}
}

// TestOrderedFanout pins the one worker pool every concurrent stage runs
// on: ParallelFor and Fanout run each index exactly once for any worker
// count, and Fanout applies the lanes' deferred effects — closures and
// typed ops mixed — lane by lane in index order and, within a lane, in
// emission order, whatever order the indices ran in. That is the order
// serial mode (a nil lane) applies them in.
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

				var want []string
				for i := 0; i < n; i++ {
					emitMixed(nil, &want, i)
				}
				net := New()
				// Two phases on one network: a lane's queue must be empty
				// again after its merge, including the lanes past warmLanes
				// whose buffers are released.
				for phase := 0; phase < 2; phase++ {
					lanes := make([]atomic.Int32, n)
					var applied []string
					net.Fanout(workers, n, func(i int, env *Effects) {
						lanes[i].Add(1)
						emitMixed(env, &applied, i)
					})
					for i := range lanes {
						if got := lanes[i].Load(); got != 1 {
							t.Errorf("phase %d: Fanout ran index %d %d times, want once", phase, i, got)
						}
					}
					if !reflect.DeepEqual(applied, want) {
						t.Fatalf("phase %d: Fanout applied %d effects, want the %d of serial mode, in order:\ngot  %q\nwant %q",
							phase, len(applied), len(want), applied, want)
					}
				}
			})
		}
	}
}
