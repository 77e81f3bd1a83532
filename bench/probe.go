package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalization. The benchmark runs on small shared VMs whose
// speed drifts by ±25% over tens of seconds as neighbours come and go;
// the same campaign measured a minute apart reads that much slower or
// faster. So every time the benchmark reports is normalized: it runs a
// fixed unit of work, the probe, after each measured piece (a program
// run, a window segment, a traced pass) and scales the run's times by
// probeRef over the run's mean probe time. A reported time is what the
// measurement would read on a host where the probe takes probeRef. The
// probe runs in the benchmark's own code, which a change to the programs
// does not touch, so it tracks the host and never the program under
// test. Raw times and probe times go to the -out record.

// probeRef is the probe time that normalized times are expressed against.
const probeRef = 0.15 // seconds

// probeKeys sizes the probe: about 0.15 s on a 2-vCPU host. The working
// set matters more than the duration: a probe that fits in cache tracks
// the programs' slowdowns poorly (run-level correlation 0.88 against
// 0.98 for this size, on ten 15 s runs of paper).
const probeKeys = 1 << 18

type probeNode struct {
	key  uint64
	next *probeNode
	vals []uint32
}

var probeSink uint64

// probeKernel is one thread's share of the probe: the simulator's kinds of
// work, map inserts and lookups on 64-bit keys, small linked allocations,
// and a sort.
func probeKernel(seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	m := make(map[uint64]*probeNode, probeKeys/2)
	keys := make([]uint64, 0, probeKeys)
	var prev *probeNode
	for i := 0; i < probeKeys; i++ {
		k := r.Uint64()
		n := &probeNode{key: k, next: prev, vals: make([]uint32, 1+i%7)}
		m[k] = n
		keys = append(keys, k)
		prev = n
	}
	var s uint64
	for _, k := range keys {
		if n, ok := m[k]; ok {
			s += uint64(len(n.vals))
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a]^0x5555 < keys[b]^0x5555 })
	return s + keys[0]
}

// probe times the fixed unit of work on both cores at once, the
// programs' own parallelism. It collects before, so every probe starts
// from the same heap, and after, so the probe's garbage is not collected
// during the next measured piece. It returns seconds.
func probe() float64 {
	defer runtime.GC()
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, cliWorkers)
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = probeKernel(int64(g))
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		probeSink += s
	}
	return time.Since(start).Seconds()
}

// hostClock collects one run's probes, taken between its measured pieces.
type hostClock struct{ probes []float64 }

func newHostClock() *hostClock { return &hostClock{probes: []float64{probe()}} }

// run runs f, then a probe.
func (h *hostClock) run(f func()) {
	f()
	h.probes = append(h.probes, probe())
}

// scale is the factor that normalizes the run's times: probeRef over the
// mean probe time. One factor for the whole run, from probes spread over
// it, tracked the programs better than a factor per piece from the two
// probes around it (spread of paper's run medians 0.062 against 0.086).
func (h *hostClock) scale() float64 {
	var sum float64
	for _, p := range h.probes {
		sum += p
	}
	return probeRef * float64(len(h.probes)) / sum
}
