package trace

import (
	"math/bits"
	"net/netip"
	"sort"

	"tcsb/internal/ids"
	"tcsb/internal/intern"
	"tcsb/internal/netsim"
)

// Sink consumes traffic events one at a time. It is the streaming
// counterpart of Log: where a Log materializes every event for later
// scanning, a Sink folds each event into bounded state as it happens.
// Sinks are fed serially — either immediately (serial simulation mode)
// or at the deterministic lane merge of a netsim Fanout phase — so
// implementations never need internal locking.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the Sink interface (used for taps, e.g.
// the gateway prober watching for its planted CID).
type SinkFunc func(Event)

// Observe calls f(e).
func (f SinkFunc) Observe(e Event) { f(e) }

// Options configure a Pipeline.
type Options struct {
	// Retain keeps the raw event slice behind Log(). Off by default in
	// campaign worlds: the full trace of a default-scale campaign costs
	// gigabytes, and every analysis of the paper folds into the Accum.
	// Consumers that genuinely need raw events (the equivalence suites,
	// event-level diffing) opt in via scenario.Config.RetainTrace.
	Retain bool
	// Keep filters which events reach the statistics Accum (and taps).
	// Events failing Keep are still retained in the raw log when Retain
	// is set — retention is the ground truth, the Accum is the analysis
	// view (e.g. the Hydra vantage excludes the observatory's own
	// crawler and collector identities, as the authors exclude their
	// tools). nil keeps everything.
	Keep func(Event) bool
	// TagPeer marks senders that analyses attribute by overlay identity
	// rather than by source IP (the Fig. 13 "hydra" bucket: Hydra heads
	// are identified by peer ID, everything else by rDNS over the IP).
	// The Accum keeps tagged traffic separately so identity-attributed
	// shares can be reconstructed without the raw events. nil tags
	// nothing.
	TagPeer func(ids.PeerID) bool
	// Intern supplies the world's shared handle tables for the Accum's
	// dense columnar storage. nil gives the accumulator private tables
	// (standalone/test pipelines); worlds pass netsim.Network.Intern so
	// handles are consistent across every component.
	Intern *intern.Tables
}

// Pipeline is the observation endpoint a monitoring vantage point
// (Bitswap monitor, Hydra logger) writes its events to. It fans each
// event into the streaming Accum, the optionally retained raw Log, and
// any attached taps. A nil *Pipeline records nothing: vantage points
// nothing ever reads (the Protocol Labs production Hydras) have one,
// and Active, Log and Stats are safe to call on it.
//
// Determinism: in serial mode handlers call Observe directly. During a
// concurrent netsim Fanout phase, handlers write to a per-lane buffer
// obtained with Via(env); netsim applies the buffers in fixed lane
// order, so the pipeline sees exactly the event sequence the serial
// engine would produce — the retained log is byte-identical and the
// Accum contents are identical for every worker count.
type Pipeline struct {
	opts Options
	log  *Log
	acc  *Accum
	taps []*tapEntry
}

// tapEntry wraps an attached sink behind a comparable identity so taps
// holding uncomparable sinks (SinkFunc closures) can still be detached.
type tapEntry struct{ s Sink }

// NewPipeline creates a pipeline with the given options.
func NewPipeline(opts Options) *Pipeline {
	p := &Pipeline{opts: opts, acc: newAccum(opts.TagPeer, opts.Intern)}
	if opts.Retain {
		p.log = &Log{}
	}
	return p
}

// Active reports whether observing an event has any effect, that is
// whether the pipeline is non-nil. Vantage points check it before
// building an event at all (address resolution for an event nothing
// records would be pure waste).
func (p *Pipeline) Active() bool { return p != nil }

// Observe feeds one event through the pipeline (serial mode).
func (p *Pipeline) Observe(e Event) {
	if p.log != nil {
		p.log.Append(e)
	}
	if p.opts.Keep != nil && !p.opts.Keep(e) {
		return
	}
	p.acc.Observe(e)
	for _, t := range p.taps {
		t.s.Observe(e)
	}
}

// Via returns the sink a handler must write to when running on the
// given Effects lane: the pipeline itself in serial mode (env == nil),
// or a lane-local buffer that netsim merges into the pipeline in fixed
// lane order when the phase ends.
func (p *Pipeline) Via(env *netsim.Effects) Sink {
	if env == nil {
		return p
	}
	return env.Lane(p).(*pipeLane)
}

// Log returns the retained raw event log, or nil when retention is off
// or the pipeline is nil.
func (p *Pipeline) Log() *Log {
	if p == nil {
		return nil
	}
	return p.log
}

// Stats returns the streaming accumulator (nil for a nil pipeline). The
// accumulator reflects every event observed so far that passed the Keep
// filter.
func (p *Pipeline) Stats() *Accum {
	if p == nil {
		return nil
	}
	return p.acc
}

// Tap attaches an additional sink and returns its detach function.
// Taps see events that pass the Keep filter, in observation order. They
// are meant for short-lived, serial-mode captures (the gateway prober);
// attaching a tap during a concurrent phase is not supported.
func (p *Pipeline) Tap(s Sink) (remove func()) {
	entry := &tapEntry{s: s}
	p.taps = append(p.taps, entry)
	return func() {
		for i, t := range p.taps {
			if t == entry {
				p.taps = append(p.taps[:i], p.taps[i+1:]...)
				return
			}
		}
	}
}

// pipeLane is the lane-local buffer of a pipeline during a concurrent
// phase: handlers append events race-free, and the netsim merge replays
// them into the pipeline in lane order.
type pipeLane struct {
	events []Event
}

// Observe buffers the event for the merge.
func (l *pipeLane) Observe(e Event) { l.events = append(l.events, e) }

// NewLane creates an empty lane buffer (netsim.Lane).
func (p *Pipeline) NewLane() any { return &pipeLane{} }

// MergeLane replays a lane buffer into the pipeline and resets it for
// reuse (netsim.Lane).
func (p *Pipeline) MergeLane(lane any) {
	l := lane.(*pipeLane)
	for _, e := range l.events {
		p.Observe(e)
	}
	l.events = l.events[:0]
}

// --- Streaming accumulator ---

// daySet is a small set of virtual day indices: a bitmask for days
// 0..63 (every realistic campaign) with a map spill for longer runs.
type daySet struct {
	mask uint64
	hi   map[int64]struct{}
}

func (d *daySet) add(day int64) {
	if day >= 0 && day < 64 {
		d.mask |= 1 << uint(day)
		return
	}
	if d.hi == nil {
		d.hi = make(map[int64]struct{}, 1)
	}
	d.hi[day] = struct{}{}
}

func (d *daySet) count() int { return bits.OnesCount64(d.mask) + len(d.hi) }

func (d *daySet) has(day int64) bool {
	if day >= 0 && day < 64 {
		return d.mask&(1<<uint(day)) != 0
	}
	_, ok := d.hi[day]
	return ok
}

// Accum is the streaming reduction of an event stream: every analysis
// the paper derives from a vantage-point log (protocol mix, per-peer and
// per-IP activity, days-seen frequency, unique-IP and traffic shares per
// class, identity-tagged platform shares, daily CID sets) folds into
// this bounded state, event by event. For any event sequence, every
// Accum-derived result equals the batch result of scanning the raw
// events — the sink-vs-log equivalence property that
// internal/simtest/invariants pins against its batch reference model.
//
// Memory is bounded by the number of distinct identifiers (peers, IPs,
// CIDs, days), not by traffic volume — the refactoring that makes
// 10x-scale campaigns memory-feasible. Storage is columnar: every
// per-identifier ledger is a dense slice indexed by the world's intern
// handle (4-byte index, no per-entry key), which at scale.10x is what
// keeps the vantage-point statistics inside the RSS budget.
//
// Observe is always serial (direct call or lane-merge replay), so lazy
// interning of identifiers first seen at a vantage point — gateway
// probe CIDs, attack sybils — is within the tables' write contract.
// Reads never intern, so once a campaign has finished observing, the
// parallel experiment runner may read its Accums from many goroutines.
type Accum struct {
	tagPeer func(ids.PeerID) bool
	tab     *intern.Tables

	n     int64
	class [classCount]int64

	// byPeer counts events per sender handle (including the zero peer,
	// handle 0); distinctPeers tracks the slots that went non-zero.
	byPeer        []int64
	distinctPeers int
	// byIP counts valid-IP events per class per address handle; noIP
	// counts the rest. Handle 0 (the invalid Addr) stays zero.
	byIP [classCount][]int64
	noIP [classCount]int64
	// tagByIP / tagNoIP are the tagged-sender sub-counts of byIP / noIP.
	tagByIP [classCount][]int64
	tagNoIP [classCount]int64

	cidDays  []daySet // by CIDH, non-zero CIDs only
	ipDays   []daySet // by AddrH, valid IPs only
	peerDays []daySet // by PeerH, non-zero peers only
}

func newAccum(tagPeer func(ids.PeerID) bool, tab *intern.Tables) *Accum {
	if tab == nil {
		tab = intern.NewTables()
	}
	return &Accum{tagPeer: tagPeer, tab: tab}
}

// grown returns s extended (zero-filled) to make handle h addressable.
func grown[T any, H ~uint32](s []T, h H) []T {
	if int(h) < len(s) {
		return s
	}
	if int(h) < cap(s) {
		return s[:int(h)+1]
	}
	ns := make([]T, int(h)+1, (int(h)+1)*3/2)
	copy(ns, s)
	return ns
}

// Observe folds one event into the accumulator (Sink; serial-only).
func (a *Accum) Observe(e Event) {
	a.n++
	cl := e.Class()
	a.class[cl]++

	tagged := a.tagPeer != nil && a.tagPeer(e.Peer)
	var ih intern.AddrH
	if e.IP.IsValid() {
		ih = a.tab.Addr(e.IP)
		a.byIP[cl] = grown(a.byIP[cl], ih)
		a.byIP[cl][ih]++
		if tagged {
			a.tagByIP[cl] = grown(a.tagByIP[cl], ih)
			a.tagByIP[cl][ih]++
		}
	} else {
		a.noIP[cl]++
		if tagged {
			a.tagNoIP[cl]++
		}
	}
	ph := a.tab.Peer(e.Peer)
	a.byPeer = grown(a.byPeer, ph)
	if a.byPeer[ph] == 0 {
		a.distinctPeers++
	}
	a.byPeer[ph]++

	day := e.Time / SecondsPerDay
	if !e.CID.IsZero() {
		ch := a.tab.CID(e.CID)
		a.cidDays = grown(a.cidDays, ch)
		a.cidDays[ch].add(day)
	}
	if e.IP.IsValid() {
		a.ipDays = grown(a.ipDays, ih)
		a.ipDays[ih].add(day)
	}
	if !e.Peer.IsZero() {
		a.peerDays = grown(a.peerDays, ph)
		a.peerDays[ph].add(day)
	}
}

// Len returns the number of events folded in.
func (a *Accum) Len() int { return int(a.n) }

// ClassCount returns the number of folded events of one class — the
// integer counterpart of Mix, used where exact counts must survive a
// digest (the scenario snapshot fingerprint) without float drift.
func (a *Accum) ClassCount(cl Class) int64 {
	if cl < 0 || cl >= classCount {
		return 0
	}
	return a.class[cl]
}

// DistinctPeers returns the number of distinct senders observed.
func (a *Accum) DistinctPeers() int { return a.distinctPeers }

// Mix returns the per-class traffic shares: only classes that occurred
// appear as keys.
func (a *Accum) Mix() map[Class]float64 {
	out := make(map[Class]float64, classCount)
	if a.n == 0 {
		return out
	}
	for c := 0; c < int(classCount); c++ {
		if a.class[c] > 0 {
			out[Class(c)] = float64(a.class[c]) / float64(a.n)
		}
	}
	return out
}

// EachPeerActivity streams the per-peer message counts without
// materializing a map.
func (a *Accum) EachPeerActivity(yield func(ids.PeerID, int64)) {
	for h, n := range a.byPeer {
		if n > 0 {
			yield(a.tab.Peers.Value(intern.PeerH(h)), n)
		}
	}
}

// EachIPActivity streams per-IP message counts summed over all classes
// (valid-IP events only), without materializing a map.
func (a *Accum) EachIPActivity(yield func(netip.Addr, int64)) {
	size := 0
	for c := 0; c < int(classCount); c++ {
		if len(a.byIP[c]) > size {
			size = len(a.byIP[c])
		}
	}
	for h := 0; h < size; h++ {
		var n int64
		for c := 0; c < int(classCount); c++ {
			if h < len(a.byIP[c]) {
				n += a.byIP[c][h]
			}
		}
		if n > 0 {
			yield(a.tab.Addrs.Value(intern.AddrH(h)), n)
		}
	}
}

// GroupShareByIP computes each group's share of total traffic where the
// group of an event is attr(e.IP) (invalid-IP events group under attr of
// the zero Addr).
func (a *Accum) GroupShareByIP(attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	for c := 0; c < int(classCount); c++ {
		a.accumulateClassShare(Class(c), attr, counts)
	}
	return divideBy(counts, float64(a.n))
}

// ClassGroupShareByIP is GroupShareByIP restricted to one traffic class
// (the Fig. 12 per-class traffic shares), with the class total as the
// denominator.
func (a *Accum) ClassGroupShareByIP(cl Class, attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	a.accumulateClassShare(cl, attr, counts)
	return divideBy(counts, float64(a.class[cl]))
}

func (a *Accum) accumulateClassShare(cl Class, attr func(netip.Addr) string, counts map[string]float64) {
	for h, n := range a.byIP[cl] {
		if n > 0 {
			counts[attr(a.tab.Addrs.Value(intern.AddrH(h)))] += float64(n)
		}
	}
	if n := a.noIP[cl]; n > 0 {
		counts[attr(netip.Addr{})] += float64(n)
	}
}

// UniqueIPShare computes each group's share of distinct IPs over all
// classes.
func (a *Accum) UniqueIPShare(attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	total := 0.0
	for h := range a.ipDays {
		if a.ipDays[h].count() > 0 {
			counts[attr(a.tab.Addrs.Value(intern.AddrH(h)))]++
			total++
		}
	}
	return divideBy(counts, total)
}

// ClassUniqueIPShare computes each group's share of the distinct IPs
// seen in one traffic class.
func (a *Accum) ClassUniqueIPShare(cl Class, attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	total := 0.0
	for h, n := range a.byIP[cl] {
		if n > 0 {
			counts[attr(a.tab.Addrs.Value(intern.AddrH(h)))]++
			total++
		}
	}
	return divideBy(counts, total)
}

// TaggedGroupShareByIP computes traffic shares with tagged senders
// pooled under tagLabel and everything else grouped by attr(IP) — the
// Fig. 13 platform attribution (tagLabel = "hydra"): a sender's group is
// tagLabel when it is tagged and attr(e.IP) otherwise.
func (a *Accum) TaggedGroupShareByIP(tagLabel string, attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	for c := 0; c < int(classCount); c++ {
		a.accumulateTaggedShare(Class(c), tagLabel, attr, counts)
	}
	return divideBy(counts, float64(a.n))
}

// ClassTaggedGroupShareByIP is TaggedGroupShareByIP restricted to one
// traffic class.
func (a *Accum) ClassTaggedGroupShareByIP(cl Class, tagLabel string, attr func(netip.Addr) string) map[string]float64 {
	counts := make(map[string]float64)
	a.accumulateTaggedShare(cl, tagLabel, attr, counts)
	return divideBy(counts, float64(a.class[cl]))
}

func (a *Accum) accumulateTaggedShare(cl Class, tagLabel string, attr func(netip.Addr) string, counts map[string]float64) {
	var tagged int64
	tag := a.tagByIP[cl]
	for h, n := range a.byIP[cl] {
		if n == 0 {
			continue
		}
		var t int64
		if h < len(tag) {
			t = tag[h]
		}
		tagged += t
		if rest := n - t; rest > 0 {
			counts[attr(a.tab.Addrs.Value(intern.AddrH(h)))] += float64(rest)
		}
	}
	tagged += a.tagNoIP[cl]
	if rest := a.noIP[cl] - a.tagNoIP[cl]; rest > 0 {
		counts[attr(netip.Addr{})] += float64(rest)
	}
	if tagged > 0 {
		counts[tagLabel] += float64(tagged)
	}
}

// DaysSeenByCID returns the Fig. 9 days-seen histogram over CIDs:
// hist[d] = number of CIDs observed on exactly d distinct days.
func (a *Accum) DaysSeenByCID() map[int]int { return daysHist(a.cidDays) }

// DaysSeenByIP returns the days-seen histogram over source IPs.
func (a *Accum) DaysSeenByIP() map[int]int { return daysHist(a.ipDays) }

// DaysSeenByPeer returns the days-seen histogram over sender peer IDs.
func (a *Accum) DaysSeenByPeer() map[int]int { return daysHist(a.peerDays) }

func daysHist(sets []daySet) map[int]int {
	hist := make(map[int]int)
	for i := range sets {
		if n := sets[i].count(); n > 0 {
			hist[n]++
		}
	}
	return hist
}

// CIDsOnDay returns the distinct non-zero CIDs observed on the given
// virtual day, sorted by key — the input of the daily-sample pipeline.
func (a *Accum) CIDsOnDay(day int64) []ids.CID {
	var out []ids.CID
	for h := range a.cidDays {
		if a.cidDays[h].has(day) {
			out = append(out, a.tab.CIDs.Value(intern.CIDH(h)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Cmp(out[j].Key()) < 0 })
	return out
}

func divideBy(m map[string]float64, total float64) map[string]float64 {
	if total == 0 {
		return m
	}
	for k := range m {
		m[k] /= total
	}
	return m
}
