package netsim

import (
	"sync"

	"tcsb/internal/ids"
)

// Lane is a shared root object with per-lane buffers (e.g. a trace
// pipeline): during a concurrent phase each worker writes to its own
// plain buffer, and when the phase ends the root merges the buffers in
// fixed task order. NewLane creates an empty buffer; MergeLane folds
// one into the root and resets it for reuse. Merges run on the driver
// goroutine, lane by lane, so implementations need no locking.
type Lane interface {
	NewLane() any
	MergeLane(any)
}

// laneSlot pairs a root with its lane-local buffer on one Effects.
type laneSlot struct {
	root  Lane
	local any
}

// Effects is the per-lane buffer that makes concurrent phases
// deterministic. During a parallel phase every worker issues RPCs
// through its own Effects value: RPC counters accumulate locally, state
// mutations a handler would perform are recorded as deferred closures,
// and lane-aware roots (trace pipelines) hand out per-lane buffers via
// Lane. When the phase ends, Apply replays the buffers in a fixed lane
// order, so the merged state — message counts, routing-table learns,
// provider-record stores, monitor and Hydra observation streams,
// pending-lookup queues — is a pure function of the lane decomposition,
// never of goroutine scheduling or worker count.
//
// A nil *Effects means immediate mode: Defer applies the closure on the
// spot, counters go straight to the Network, and Lane-aware roots are
// written directly. Serial code paths (world construction,
// single-threaded drivers, tests) use nil.
type Effects struct {
	// ops lists the deferred side effects in emission order, one kind
	// per op; the payload of the n-th op of a kind is the n-th entry of
	// that kind's slice. Each op thus costs one byte plus its own kind's
	// payload: 48 bytes for a routing-table learn, the most common op,
	// where a provider put needs 112.
	ops     []opKind
	fns     []func()
	learns  []learnOp
	puts    []putOp
	lookups []lookupOp

	counts [msgTypeCount]int64
	lanes  []laneSlot

	// Link impairment state. laneSalt permanently identifies the lane's
	// draw stream (pool index + 1; 0 is the serial stream) and latSeq
	// numbers the lane's draws over its lifetime — neither resets at
	// Apply, so the streams stay decorrelated across phases while
	// remaining a pure function of the lane decomposition. The counters
	// merge into the Network's lifetime totals at Apply and reset.
	laneSalt      uint64
	latSeq        uint64
	linkIssued    int64
	linkDropped   int64
	linkDelivered int64
	linkElapsedUS int64
}

// ContactLearner consumes a deferred routing-table learn. Handlers
// record learns through DeferLearn instead of a closure: the arguments
// go into the typed op queue, so the per-RPC heap allocation the closure
// capture cost is gone (the learns were the single largest allocation
// source of a campaign).
type ContactLearner interface {
	LearnContact(from ids.PeerID)
}

// ProviderSink consumes a deferred provider-record store, the second of
// the two per-RPC side effects hot enough to earn a closure-free path.
type ProviderSink interface {
	PutProvider(c ids.CID, rec ProviderRecord)
}

// LookupEnqueuer consumes a deferred proactive-lookup enqueue (the
// Hydra cache-miss path).
type LookupEnqueuer interface {
	EnqueueLookup(c ids.CID)
}

// opKind names the payload slice a deferred op lives in.
type opKind uint8

const (
	opFn opKind = iota
	opLearn
	opPut
	opLookup
)

// learnOp, putOp and lookupOp are the payloads of the typed fast paths.
type learnOp struct {
	l    ContactLearner
	from ids.PeerID
}

type putOp struct {
	s   ProviderSink
	cid ids.CID
	rec ProviderRecord
}

type lookupOp struct {
	q   LookupEnqueuer
	cid ids.CID
}

// Defer records a side effect to apply at merge time, or applies it
// immediately when e is nil (serial mode).
func (e *Effects) Defer(f func()) {
	if e == nil {
		f()
		return
	}
	e.ops = append(e.ops, opFn)
	e.fns = append(e.fns, f)
}

// DeferLearn is Defer for a routing-table learn, allocation-free in
// lane mode.
func (e *Effects) DeferLearn(l ContactLearner, from ids.PeerID) {
	if e == nil {
		l.LearnContact(from)
		return
	}
	e.ops = append(e.ops, opLearn)
	e.learns = append(e.learns, learnOp{l, from})
}

// DeferProviderPut is Defer for a provider-record store, allocation-free
// in lane mode.
func (e *Effects) DeferProviderPut(s ProviderSink, c ids.CID, rec ProviderRecord) {
	if e == nil {
		s.PutProvider(c, rec)
		return
	}
	e.ops = append(e.ops, opPut)
	e.puts = append(e.puts, putOp{s, c, rec})
}

// DeferLookup is Defer for a proactive-lookup enqueue, allocation-free
// in lane mode.
func (e *Effects) DeferLookup(q LookupEnqueuer, c ids.CID) {
	if e == nil {
		q.EnqueueLookup(c)
		return
	}
	e.ops = append(e.ops, opLookup)
	e.lookups = append(e.lookups, lookupOp{q, c})
}

// Lane returns this lane's buffer for the given root, creating it on
// first use. Callers must not hold the result across phases.
func (e *Effects) Lane(root Lane) any {
	for i := range e.lanes {
		if e.lanes[i].root == root {
			return e.lanes[i].local
		}
	}
	l := root.NewLane()
	e.lanes = append(e.lanes, laneSlot{root: root, local: l})
	return l
}

// replay runs the deferred ops in emission order, then empties the
// queue, keeping capacity but dropping the closure, handler and address
// references for the GC.
func (e *Effects) replay() {
	var fn, ln, pt, lk int
	for _, k := range e.ops {
		switch k {
		case opFn:
			e.fns[fn]()
			fn++
		case opLearn:
			op := &e.learns[ln]
			op.l.LearnContact(op.from)
			ln++
		case opPut:
			op := &e.puts[pt]
			op.s.PutProvider(op.cid, op.rec)
			pt++
		case opLookup:
			op := &e.lookups[lk]
			op.q.EnqueueLookup(op.cid)
			lk++
		}
	}
	clear(e.fns)
	clear(e.learns)
	clear(e.puts)
	clear(e.lookups)
	e.ops, e.fns, e.learns, e.puts, e.lookups = e.ops[:0], e.fns[:0], e.learns[:0], e.puts[:0], e.lookups[:0]
}

// count records one RPC of type t against the lane (or the network
// directly in immediate mode).
func (n *Network) count(env *Effects, t MsgType) {
	if env == nil {
		n.msgCount[t]++
		return
	}
	env.counts[t]++
}

// Apply merges lane buffers into the network in the given order: RPC
// counters are summed, deferred side effects run in emission order, and
// lane-aware roots merge their per-lane instances — lane by lane.
// Callers must pass lanes in a fixed, scheduling-independent order
// (shard index, task index) — that ordering is the whole determinism
// contract.
func (n *Network) Apply(envs ...*Effects) {
	for _, e := range envs {
		if e == nil {
			continue
		}
		for t, c := range e.counts {
			n.msgCount[t] += c
		}
		e.replay()
		for i := range e.lanes {
			e.lanes[i].root.MergeLane(e.lanes[i].local)
		}
		n.linkIssued += e.linkIssued
		n.linkDropped += e.linkDropped
		n.linkDelivered += e.linkDelivered
		n.linkElapsedUS += e.linkElapsedUS
		e.linkIssued, e.linkDropped, e.linkDelivered, e.linkElapsedUS = 0, 0, 0, 0
		e.counts = [msgTypeCount]int64{}
	}
}

// Fanout runs task(0..count-1) on at most `workers` goroutines, hands
// each index a private Effects lane, and — once every index has run —
// applies all lanes in index order. The observable outcome is therefore
// byte-identical for every workers value (including 1): only wall-clock
// changes. During the phase the network must not be mutated directly;
// handlers route their writes through the lane, and phase code may only
// read shared state.
//
// Lane values are pooled on the Network and reused across phases;
// Fanout is a driver-side call and is never invoked concurrently for
// one Network.
func (n *Network) Fanout(workers, count int, task func(i int, env *Effects)) {
	for len(n.lanePool) < count {
		n.lanePool = append(n.lanePool, &Effects{laneSalt: uint64(len(n.lanePool)) + 1})
	}
	envs := n.lanePool[:count]
	ParallelFor(workers, count, func(i int) { task(i, envs[i]) })
	n.Apply(envs...)
	// Only the first warmLanes lanes keep their buffer capacity between
	// phases. Crawl waves and collection phases fan out over one lane
	// per task — tens of thousands at scale — and retaining a deferred
	// queue plus lane-local trace buffers on each held live memory
	// proportional to the largest fan-out ever seen. Lane *identity*
	// (laneSalt, latSeq — the impairment draw streams) survives the
	// trim, so outputs are untouched; high-index lanes merely reallocate
	// their buffers on next use. The threshold is a constant, never
	// derived from `workers`, keeping byte-identity across worker
	// counts.
	for _, e := range envs[min(warmLanes, count):] {
		*e = Effects{laneSalt: e.laneSalt, latSeq: e.latSeq}
	}
}

// warmLanes is the number of pooled lanes that keep buffer capacity
// across phases (tick phases use one lane per shard, well below this).
const warmLanes = 64

// ParallelFor runs f(0..n-1) on at most `workers` goroutines (in the
// calling goroutine when workers <= 1) and returns once every index has
// run. It is the module's one worker pool: Fanout and every other stage
// that runs independent work concurrently go through it. Callers are
// responsible for f being safe to fan out and for consuming results in
// a fixed index order.
func ParallelFor(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// No goroutines: determinism across worker counts comes from
		// the callers' index-ordered merges, not scheduling.
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
