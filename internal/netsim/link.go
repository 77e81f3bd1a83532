package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tcsb/internal/ids"
)

// This file is the network-realism layer: a deterministic per-link
// impairment model in the tc-shaping vocabulary — each (rate-class,
// rate-class) pair of endpoints gets a delay distribution (base ± jitter)
// and a loss probability. Every RPC that survives the reachability rules
// draws its impairment from a hash-derived stream that depends only on
// (seed, lane, draw index), never on goroutine scheduling, so the model
// keeps the simulator's byte-identical worker determinism while giving
// gateway fetches, DHT walks and crawl waves a virtual time cost.
//
// The zero LinkProfile is the identity: no draws, no latency, no loss —
// a world built without a profile behaves exactly as before the layer
// existed.

// LinkClass is a peer's rate class for link impairment: data-center
// (cloud) endpoints vs residential/NAT (resi) endpoints. The zero value
// is LinkCloud, which is also what unregistered measurement identities
// (crawler, collector) default to — the paper's tools run from
// well-connected vantage points.
type LinkClass uint8

const (
	LinkCloud LinkClass = iota
	LinkResi
)

// String returns the class's grammar token.
func (c LinkClass) String() string {
	if c == LinkResi {
		return "resi"
	}
	return "cloud"
}

// Link pair indices: the three unordered (class, class) combinations,
// in canonical grammar order.
const (
	pairCloudCloud = iota
	pairCloudResi
	pairResiResi
	linkPairCount
)

var pairNames = [linkPairCount]string{"cloud-cloud", "cloud-resi", "resi-resi"}

// pairIndexOf maps an unordered endpoint-class pair to its index.
func pairIndexOf(a, b LinkClass) int {
	switch {
	case a == LinkCloud && b == LinkCloud:
		return pairCloudCloud
	case a == LinkResi && b == LinkResi:
		return pairResiResi
	default:
		return pairCloudResi
	}
}

// LinkSpec is one link class pair's impairment: a base one-way delay
// with symmetric jitter (draws are uniform on [delay-jitter,
// delay+jitter]) and an independent loss probability.
type LinkSpec struct {
	// DelayUS is the base per-RPC delay in microseconds.
	DelayUS int64
	// JitterUS is the maximum absolute deviation from DelayUS, in
	// microseconds. Must not exceed DelayUS (delays never go negative).
	JitterUS int64
	// Loss is the probability in [0, maxLinkLoss] that an RPC is
	// dropped outright (the dial fails with ErrLinkLoss).
	Loss float64
}

// IsZero reports the identity spec: no delay, no jitter, no loss.
func (s LinkSpec) IsZero() bool {
	return s.DelayUS == 0 && s.JitterUS == 0 && s.Loss == 0
}

// LinkProfile is the full per-link impairment model: one LinkSpec per
// endpoint-class pair. The zero value is the identity profile.
type LinkProfile struct {
	Pairs [linkPairCount]LinkSpec
}

// IsZero reports the identity profile (net.ideal): with it installed
// the impairment fast path takes zero draws and the simulator behaves
// exactly as if no model existed.
func (p LinkProfile) IsZero() bool {
	for _, s := range p.Pairs {
		if !s.IsZero() {
			return false
		}
	}
	return true
}

// Grammar bounds.
const (
	maxLinkDelayUS = 10_000_000 // 10 s — beyond any sane link
	maxLinkLoss    = 0.9        // a link that drops everything is a partition, not a link
)

// ParseLinkProfile parses the canonical link-profile grammar:
//
//	pair=<delay>ms±<jitter>[,loss=<p>] [; pair=... ]
//
// e.g. "cloud-cloud=5ms±2;resi-cloud=40ms±15,loss=0.02". Pairs are
// cloud-cloud, cloud-resi (resi-cloud is accepted as an alias) and
// resi-resi; omitted pairs stay at the identity spec. Delay and jitter
// are in milliseconds (fractions allowed; "±" may be written "+-");
// loss is a probability. Duplicate or unknown pairs and out-of-bound
// values are errors. The empty spec is the identity profile.
func ParseLinkProfile(spec string) (LinkProfile, error) {
	var p LinkProfile
	seen := [linkPairCount]bool{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(strings.ToLower(clause))
		if clause == "" {
			continue
		}
		name, value, ok := strings.Cut(clause, "=")
		if !ok {
			return LinkProfile{}, fmt.Errorf("netsim: link clause %q is not pair=value", clause)
		}
		name = strings.TrimSpace(name)
		if name == "resi-cloud" { // alias of the canonical mixed pair
			name = "cloud-resi"
		}
		idx := -1
		for i, pn := range pairNames {
			if name == pn {
				idx = i
				break
			}
		}
		if idx < 0 {
			return LinkProfile{}, fmt.Errorf("netsim: unknown link pair %q (want cloud-cloud, cloud-resi or resi-resi)", name)
		}
		if seen[idx] {
			return LinkProfile{}, fmt.Errorf("netsim: duplicate link pair %q", name)
		}
		seen[idx] = true
		ls, err := parseLinkSpec(strings.TrimSpace(value))
		if err != nil {
			return LinkProfile{}, fmt.Errorf("netsim: link pair %s: %w", name, err)
		}
		p.Pairs[idx] = ls
	}
	if err := p.Validate(); err != nil {
		return LinkProfile{}, err
	}
	return p, nil
}

// parseLinkSpec parses one pair's value: "<delay>ms±<jitter>" with an
// optional ",loss=<p>" suffix.
func parseLinkSpec(value string) (LinkSpec, error) {
	var s LinkSpec
	parts := strings.Split(value, ",")
	delayPart := strings.TrimSpace(parts[0])
	// "±" is canonical; "+-" is the ASCII spelling for shells without it.
	delayStr, jitterStr, hasJitter := strings.Cut(delayPart, "±")
	if !hasJitter {
		delayStr, jitterStr, hasJitter = strings.Cut(delayPart, "+-")
	}
	delayMS, err := parseLinkNumber(strings.TrimSuffix(strings.TrimSpace(delayStr), "ms"))
	if err != nil || !strings.HasSuffix(strings.TrimSpace(delayStr), "ms") {
		return s, fmt.Errorf("delay %q is not <number>ms", delayStr)
	}
	s.DelayUS = int64(math.Round(delayMS * 1000))
	if hasJitter {
		jitterMS, err := parseLinkNumber(strings.TrimSpace(jitterStr))
		if err != nil {
			return s, fmt.Errorf("jitter %q is not a number", jitterStr)
		}
		s.JitterUS = int64(math.Round(jitterMS * 1000))
	}
	for _, extra := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(extra), "=")
		if !ok || strings.TrimSpace(key) != "loss" {
			return s, fmt.Errorf("option %q is not loss=<p>", strings.TrimSpace(extra))
		}
		loss, err := parseLinkNumber(strings.TrimSpace(val))
		if err != nil {
			return s, fmt.Errorf("loss %q is not a number", strings.TrimSpace(val))
		}
		s.Loss = loss
	}
	return s, nil
}

// parseLinkNumber parses a finite non-negative float.
func parseLinkNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("value %q out of range", s)
	}
	return v, nil
}

// Validate enforces the model bounds on every pair.
func (p LinkProfile) Validate() error {
	for i, s := range p.Pairs {
		if s.DelayUS < 0 || s.DelayUS > maxLinkDelayUS {
			return fmt.Errorf("netsim: link pair %s: delay %dµs outside [0, %dµs]",
				pairNames[i], s.DelayUS, int64(maxLinkDelayUS))
		}
		if s.JitterUS < 0 || s.JitterUS > s.DelayUS {
			return fmt.Errorf("netsim: link pair %s: jitter %dµs outside [0, delay=%dµs]",
				pairNames[i], s.JitterUS, s.DelayUS)
		}
		if s.Loss < 0 || s.Loss > maxLinkLoss {
			return fmt.Errorf("netsim: link pair %s: loss %v outside [0, %v]",
				pairNames[i], s.Loss, maxLinkLoss)
		}
	}
	return nil
}

// String renders the canonical form: every pair in fixed order, delays
// in milliseconds, loss only when non-zero. The canonical form is a
// fixed point of Parse (pinned by FuzzParseLinkProfile), so specs in
// configs and JSONL rows are stable forever.
func (p LinkProfile) String() string {
	var b strings.Builder
	for i, s := range p.Pairs {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%sms±%s", pairNames[i],
			formatLinkMS(s.DelayUS), formatLinkMS(s.JitterUS))
		if s.Loss > 0 {
			b.WriteString(",loss=")
			b.WriteString(strconv.FormatFloat(s.Loss, 'f', -1, 64))
		}
	}
	return b.String()
}

// formatLinkMS renders microseconds as a minimal millisecond literal.
func formatLinkMS(us int64) string {
	return strconv.FormatFloat(float64(us)/1000, 'f', -1, 64)
}

// LinkPreset is a named link profile surfaced through -net-profile and
// the net.* interventions.
type LinkPreset struct {
	Name        string
	Spec        string
	Description string
}

// linkPresets is the net.* catalog. net.measured approximates the
// conditions behind the paper's vantage measurements (DC-to-DC RTTs in
// the ~10ms band, last-mile residential paths in the tens-to-hundreds);
// net.degraded is the stress profile for what-if and timeline epochs.
var linkPresets = []LinkPreset{
	{
		Name:        "net.ideal",
		Spec:        "",
		Description: "zero-latency lossless links: the identity profile (default)",
	},
	{
		Name:        "net.measured",
		Spec:        "cloud-cloud=8ms±3;cloud-resi=40ms±15,loss=0.01;resi-resi=90ms±35,loss=0.02",
		Description: "realistic per-class delays and loss approximating the paper's vantage conditions",
	},
	{
		Name:        "net.degraded",
		Spec:        "cloud-cloud=25ms±10,loss=0.01;cloud-resi=120ms±60,loss=0.05;resi-resi=250ms±120,loss=0.08",
		Description: "congested links: inflated delays, heavy residential loss (stress scenario)",
	},
}

// LinkPresets returns the net.* profile catalog in listing order.
func LinkPresets() []LinkPreset {
	out := make([]LinkPreset, len(linkPresets))
	copy(out, linkPresets)
	return out
}

// ResolveLinkProfile resolves a -net-profile value: empty means the
// identity, a net.* name selects its preset, anything else must parse
// under the grammar.
func ResolveLinkProfile(nameOrSpec string) (LinkProfile, error) {
	s := strings.TrimSpace(strings.ToLower(nameOrSpec))
	for _, p := range linkPresets {
		if s == p.Name {
			return ParseLinkProfile(p.Spec)
		}
	}
	return ParseLinkProfile(s)
}

// SetLinkModel installs a link profile. seed keys the impairment draw
// streams; drivers derive it from the scenario seed so rebuilt worlds
// replay identical draws. Installing a profile mid-run (a timeline
// epoch flipping to net.degraded) keeps the draw-sequence counters, so
// the draws after the swap continue the streams before it.
func (n *Network) SetLinkModel(p LinkProfile, seed uint64) {
	n.link = p
	n.linkZero = p.IsZero()
	n.linkSeed = seed
}

// LinkModel returns the installed profile (the zero profile if none).
func (n *Network) LinkModel() LinkProfile { return n.link }

// LinkStats returns the lifetime impairment counters: RPCs that reached
// the impairment layer, those dropped by loss draws, and those
// delivered. issued == dropped + delivered always (the loss-conservation
// invariant).
func (n *Network) LinkStats() (issued, dropped, delivered int64) {
	return n.linkIssued, n.linkDropped, n.linkDelivered
}

// LinkElapsedUS returns the total virtual link latency accrued by all
// delivered RPCs, in microseconds. It is monotone non-decreasing and
// independent of worker count.
func (n *Network) LinkElapsedUS() int64 { return n.linkElapsedUS }

// LatencyMark returns the cumulative link latency visible to the
// caller's lane (lane-local since the last Apply when env is non-nil;
// the network lifetime total in serial mode). Phase code brackets an
// operation with two marks and records the difference as that
// operation's virtual duration.
func (n *Network) LatencyMark(env *Effects) int64 {
	if env == nil {
		return n.linkElapsedUS
	}
	return env.linkElapsedUS
}

// classOf returns a peer's link class, defaulting unregistered
// identities (the measurement tools) to LinkCloud.
func (n *Network) classOf(id ids.PeerID) LinkClass {
	if h, ok := n.hosts[id]; ok {
		return h.linkClass
	}
	return LinkCloud
}

// impair applies the link model to one RPC after the reachability rules
// admitted it: a loss draw may drop it (ErrLinkLoss), otherwise a delay
// draw accrues virtual latency on the caller's lane. Draws come from
// hash streams keyed on (profile seed, lane, per-lane sequence number),
// so they depend only on the deterministic order of RPCs within a lane
// — never on worker count or goroutine scheduling. The identity profile
// takes the zero-cost fast path: no draws, no counter movement, exactly
// the pre-model simulator.
func (n *Network) impair(env *Effects, from ids.PeerID, to *hostRecord) error {
	if n.linkZero {
		return nil
	}
	pair := pairIndexOf(n.classOf(from), to.linkClass)
	spec := &n.link.Pairs[pair]
	var salt, seq uint64
	if env == nil {
		n.linkSerialSeq++
		seq = n.linkSerialSeq
	} else {
		env.latSeq++
		salt, seq = env.laneSalt, env.latSeq
	}
	if spec.Loss > 0 {
		h := ids.DeriveSeed(n.linkSeed, salt, seq, uint64(pair)*2+1)
		if float64(h>>11)/(1<<53) < spec.Loss {
			n.linkCount(env, 1, 0, 0)
			return ErrLinkLoss
		}
	}
	delay := spec.DelayUS
	if spec.JitterUS > 0 {
		h := ids.DeriveSeed(n.linkSeed, salt, seq, uint64(pair)*2)
		delay += int64(h%uint64(2*spec.JitterUS+1)) - spec.JitterUS
	}
	n.linkCount(env, 1, 1, delay)
	return nil
}

// linkCount accrues impairment counters on the lane (or the network
// directly in serial mode). delivered RPCs carry their drawn delay.
func (n *Network) linkCount(env *Effects, issued, delivered, delayUS int64) {
	if env == nil {
		n.linkIssued += issued
		n.linkDropped += issued - delivered
		n.linkDelivered += delivered
		n.linkElapsedUS += delayUS
		return
	}
	env.linkIssued += issued
	env.linkDropped += issued - delivered
	env.linkDelivered += delivered
	env.linkElapsedUS += delayUS
}
