package netsim

import (
	"errors"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
)

// linkGrammarTable is the pinned accepted/rejected regression table for
// the link-profile grammar: every row's verdict — and, for accepted
// rows, the canonical form — is fixed forever. FuzzParseLinkProfile
// replays the same shapes (and more) as corpus seeds.
var linkGrammarTable = []struct {
	spec      string
	canonical string // non-empty = accepted, with this String()
	rejected  bool
}{
	{spec: "", canonical: "cloud-cloud=0ms±0;cloud-resi=0ms±0;resi-resi=0ms±0"},
	{spec: ";;;", canonical: "cloud-cloud=0ms±0;cloud-resi=0ms±0;resi-resi=0ms±0"},
	{spec: "cloud-cloud=5ms±2", canonical: "cloud-cloud=5ms±2;cloud-resi=0ms±0;resi-resi=0ms±0"},
	{spec: "cloud-cloud=5ms+-2", canonical: "cloud-cloud=5ms±2;cloud-resi=0ms±0;resi-resi=0ms±0"},
	{spec: "cloud-cloud=5ms±2;resi-cloud=40ms±15,loss=0.02",
		canonical: "cloud-cloud=5ms±2;cloud-resi=40ms±15,loss=0.02;resi-resi=0ms±0"},
	{spec: "  CLOUD-CLOUD = 8ms ± 3 ; resi-resi=90ms±35 , loss=0.02 ",
		canonical: "cloud-cloud=8ms±3;cloud-resi=0ms±0;resi-resi=90ms±35,loss=0.02"},
	{spec: "cloud-resi=0.5ms±0.25", canonical: "cloud-cloud=0ms±0;cloud-resi=0.5ms±0.25;resi-resi=0ms±0"},
	{spec: "cloud-cloud=10000ms±10000", canonical: "cloud-cloud=10000ms±10000;cloud-resi=0ms±0;resi-resi=0ms±0"},
	{spec: "resi-resi=1ms,loss=0.9", canonical: "cloud-cloud=0ms±0;cloud-resi=0ms±0;resi-resi=1ms±0,loss=0.9"},

	{spec: "cloud-cloud", rejected: true},                         // no value
	{spec: "=5ms", rejected: true},                                // no pair
	{spec: "dc-dc=5ms", rejected: true},                           // unknown pair
	{spec: "cloud-cloud=5", rejected: true},                       // missing ms unit
	{spec: "cloud-cloud=5s", rejected: true},                      // wrong unit
	{spec: "cloud-cloud=", rejected: true},                        // empty value
	{spec: "cloud-cloud=xms", rejected: true},                     // non-numeric delay
	{spec: "cloud-cloud=5ms±x", rejected: true},                   // non-numeric jitter
	{spec: "cloud-cloud=5ms±2;cloud-cloud=5ms±2", rejected: true}, // duplicate pair
	{spec: "cloud-resi=5ms±2;resi-cloud=5ms±2", rejected: true},   // duplicate via alias
	{spec: "cloud-cloud=5ms±6", rejected: true},                   // jitter > delay
	{spec: "cloud-cloud=-5ms", rejected: true},                    // negative delay
	{spec: "cloud-cloud=10001ms", rejected: true},                 // delay above bound
	{spec: "cloud-cloud=5ms,loss=0.91", rejected: true},           // loss above bound
	{spec: "cloud-cloud=5ms,loss=-0.1", rejected: true},           // negative loss
	{spec: "cloud-cloud=5ms,loss=nan", rejected: true},            // non-finite loss
	{spec: "cloud-cloud=infms", rejected: true},                   // non-finite delay
	{spec: "cloud-cloud=5ms,drop=0.1", rejected: true},            // unknown option
	{spec: "cloud-cloud=5ms,loss", rejected: true},                // option without value
}

func TestParseLinkProfileTable(t *testing.T) {
	for _, row := range linkGrammarTable {
		p, err := ParseLinkProfile(row.spec)
		if row.rejected {
			if err == nil {
				t.Errorf("Parse(%q) accepted, want rejection (got %q)", row.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q) rejected: %v", row.spec, err)
			continue
		}
		if got := p.String(); got != row.canonical {
			t.Errorf("Parse(%q).String() = %q, want pinned %q", row.spec, got, row.canonical)
		}
		// The canonical form must be a fixed point.
		back, err := ParseLinkProfile(p.String())
		if err != nil || back != p {
			t.Errorf("canonical round-trip of %q failed: %v (back=%q)", row.spec, err, back)
		}
	}
}

func TestLinkPresetsResolve(t *testing.T) {
	if len(LinkPresets()) != 3 {
		t.Fatalf("net.* catalog has %d presets, want 3", len(LinkPresets()))
	}
	for _, preset := range LinkPresets() {
		p, err := ResolveLinkProfile(preset.Name)
		if err != nil {
			t.Fatalf("preset %s does not resolve: %v", preset.Name, err)
		}
		if (preset.Name == "net.ideal") != p.IsZero() {
			t.Errorf("preset %s: IsZero=%v", preset.Name, p.IsZero())
		}
	}
	if p, err := ResolveLinkProfile(""); err != nil || !p.IsZero() {
		t.Errorf("empty profile must resolve to the identity, got %q err=%v", p, err)
	}
	if p, err := ResolveLinkProfile("  NET.MEASURED "); err != nil || p.IsZero() {
		t.Errorf("preset lookup must be case/space-insensitive, got %q err=%v", p, err)
	}
	if _, err := ResolveLinkProfile("net.bogus"); err == nil {
		t.Error("unknown preset name must fail to parse as a spec")
	}
	if _, err := ResolveLinkProfile("cloud-cloud=5ms±2"); err != nil {
		t.Errorf("raw grammar spec must resolve: %v", err)
	}
}

func TestMustParseLinkProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseLinkProfile did not panic on a bad spec")
		}
	}()
	MustParseLinkProfile("cloud-cloud=zzz")
}

// linkWorldPair attaches a cloud server and a resi server to a network.
func linkWorldPair() (*Network, ids.PeerID, ids.PeerID) {
	n := New()
	cloud := ids.PeerIDFromSeed(1)
	resi := ids.PeerIDFromSeed(2)
	n.Attach(cloud, &stubHandler{}, HostConfig{Reachable: true, Addrs: []maddr.Addr{addrOf("10.0.0.1")}, LinkClass: LinkCloud})
	n.Attach(resi, &stubHandler{}, HostConfig{Reachable: true, Addrs: []maddr.Addr{addrOf("10.0.0.2")}, LinkClass: LinkResi})
	return n, cloud, resi
}

// TestLinkIdentityFastPath pins the acceptance criterion that the zero
// profile is the exact identity: no counters move, no draws happen.
func TestLinkIdentityFastPath(t *testing.T) {
	n, cloud, resi := linkWorldPair()
	for i := 0; i < 50; i++ {
		if _, err := n.FindNode(nil, nil, cloud, resi, resi.Key()); err != nil {
			t.Fatal(err)
		}
	}
	issued, dropped, delivered := n.LinkStats()
	if issued != 0 || dropped != 0 || delivered != 0 || n.LinkElapsedUS() != 0 {
		t.Fatalf("identity profile moved link counters: %d/%d/%d elapsed=%d",
			issued, dropped, delivered, n.LinkElapsedUS())
	}
	if n.MessageCount(MsgFindNode) != 50 {
		t.Fatalf("deliveries miscounted: %d", n.MessageCount(MsgFindNode))
	}
}

// TestLinkImpairment exercises loss and delay under net.degraded: the
// loss-conservation law holds, elapsed time accrues within the drawn
// bounds, and the same seed replays the exact same draw sequence.
func TestLinkImpairment(t *testing.T) {
	run := func() (issued, dropped, delivered, elapsed int64, losses int) {
		n, cloud, resi := linkWorldPair()
		prof := MustParseLinkProfile("cloud-resi=40ms±15,loss=0.2")
		n.SetLinkModel(prof, ids.DeriveSeed(7, 0x11ac))
		for i := 0; i < 400; i++ {
			_, err := n.FindNode(nil, nil, cloud, resi, resi.Key())
			if errors.Is(err, ErrLinkLoss) {
				losses++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		issued, dropped, delivered = n.LinkStats()
		return issued, dropped, delivered, n.LinkElapsedUS(), losses
	}
	issued, dropped, delivered, elapsed, losses := run()
	if issued != 400 || dropped+delivered != issued {
		t.Fatalf("loss conservation broken: issued=%d dropped=%d delivered=%d", issued, dropped, delivered)
	}
	if int64(losses) != dropped {
		t.Fatalf("ErrLinkLoss count %d != dropped counter %d", losses, dropped)
	}
	if dropped == 0 || delivered == 0 {
		t.Fatalf("loss=0.2 over 400 RPCs should both drop and deliver (dropped=%d)", dropped)
	}
	// Every delivered delay lies in [25ms, 55ms], so the total must too.
	if elapsed < delivered*25_000 || elapsed > delivered*55_000 {
		t.Fatalf("elapsed %dµs outside the drawn bounds for %d deliveries", elapsed, delivered)
	}
	i2, d2, del2, e2, l2 := run()
	if i2 != issued || d2 != dropped || del2 != delivered || e2 != elapsed || l2 != losses {
		t.Fatal("identical seeds must replay identical impairment draws")
	}
}

// quietHandler answers without touching any state: parallel phases
// require handlers to be pure reads (writes go through env.Defer), and
// the recording stubHandler would race under Fanout.
type quietHandler struct{}

func (quietHandler) HandleFindNode(env *Effects, from ids.PeerID, target ids.Key, closer []ids.PeerID) []ids.PeerID {
	return closer
}
func (quietHandler) HandleGetProviders(env *Effects, from ids.PeerID, c ids.CID, recs []ProviderRecord, closer []ids.PeerID) ([]ProviderRecord, []ids.PeerID) {
	return recs, closer
}
func (quietHandler) HandleAddProvider(env *Effects, from ids.PeerID, c ids.CID, rec ProviderRecord) {}
func (quietHandler) HandleBitswapWant(env *Effects, from ids.PeerID, c ids.CID) bool {
	return false
}

// TestLinkLaneDeterminism pins that a fanned-out phase accrues the same
// totals for every worker count: lanes are keyed by task index, not by
// goroutine, and merge in fixed order.
func TestLinkLaneDeterminism(t *testing.T) {
	run := func(workers int) (int64, int64, int64, int64) {
		n := New()
		cloud := ids.PeerIDFromSeed(1)
		resi := ids.PeerIDFromSeed(2)
		n.Attach(cloud, quietHandler{}, HostConfig{Reachable: true, Addrs: []maddr.Addr{addrOf("10.0.0.1")}, LinkClass: LinkCloud})
		n.Attach(resi, quietHandler{}, HostConfig{Reachable: true, Addrs: []maddr.Addr{addrOf("10.0.0.2")}, LinkClass: LinkResi})
		n.SetLinkModel(MustParseLinkProfile("cloud-resi=10ms±5,loss=0.1"), 99)
		n.Fanout(workers, 8, func(_ int, env *Effects) {
			for i := 0; i < 25; i++ {
				n.FindNode(env, nil, cloud, resi, resi.Key())
			}
		})
		issued, dropped, delivered := n.LinkStats()
		return issued, dropped, delivered, n.LinkElapsedUS()
	}
	i1, d1, del1, e1 := run(1)
	i8, d8, del8, e8 := run(8)
	if i1 != i8 || d1 != d8 || del1 != del8 || e1 != e8 {
		t.Fatalf("link totals differ across worker counts: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			i1, d1, del1, e1, i8, d8, del8, e8)
	}
	if i1 != 200 || d1+del1 != i1 {
		t.Fatalf("loss conservation broken under lanes: %d/%d/%d", i1, d1, del1)
	}
}

// TestLatencyMark pins the bracketing API phase code uses to time an
// operation, in both serial and lane modes.
func TestLatencyMark(t *testing.T) {
	n, cloud, resi := linkWorldPair()
	n.SetLinkModel(MustParseLinkProfile("cloud-resi=10ms±0"), 1)
	before := n.LatencyMark(nil)
	if _, err := n.FindNode(nil, nil, cloud, resi, resi.Key()); err != nil {
		t.Fatal(err)
	}
	if got := n.LatencyMark(nil) - before; got != 10_000 {
		t.Fatalf("serial mark diff = %dµs, want 10000", got)
	}
	var lane int64
	n.Fanout(1, 1, func(_ int, env *Effects) {
		m := n.LatencyMark(env)
		n.FindNode(env, nil, cloud, resi, resi.Key())
		lane = n.LatencyMark(env) - m
	})
	if lane != 10_000 {
		t.Fatalf("lane mark diff = %dµs, want 10000", lane)
	}
	if n.LinkElapsedUS() != 20_000 {
		t.Fatalf("network total = %dµs, want 20000", n.LinkElapsedUS())
	}
}
