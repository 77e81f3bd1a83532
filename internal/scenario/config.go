// Package scenario builds and drives simulated IPFS worlds calibrated to
// the populations and behaviours the paper measured: a DHT server core
// that is ~80% cloud-hosted (Fig. 3) with the paper's provider mix
// (Fig. 5) and country mix (Fig. 6); a NAT-ed client fringe relaying
// through (mostly cloud) DHT servers; churn with residential IP rotation
// and peer-ID regeneration (the behaviours that separate the G-IP and A-N
// counting methodologies in Fig. 4); platform actors — web3.storage and
// nft.storage style persistent-storage advertisers, an ipfs-bank style
// gateway platform, Filebase pinning nodes, Protocol Labs Hydra boosters
// on AWS — and public HTTP gateways including a Cloudflare-style
// multi-node deployment; plus the two measurement vantage points (Bitswap
// monitor, Hydra logger) wired in.
//
// Everything is driven by one seeded *rand.Rand and a virtual clock:
// identical configs produce identical worlds, traffic and logs.
package scenario

import (
	"maps"

	"tcsb/internal/ipdb"
)

// Config sets the world's population and behaviour. DefaultConfig gives a
// laptop-scale world calibrated to the paper's distributions.
type Config struct {
	// Seed drives all randomness.
	Seed int64

	// Servers is the number of ordinary DHT server nodes (the paper
	// observed ≈25.7k per crawl; default scale 1/12 of that).
	Servers int
	// NATClients is the user-operated DHT-client fringe size.
	NATClients int

	// CloudServerFrac is the fraction of DHT servers hosted in the cloud
	// (the paper's A-N measurement: 79.6%).
	CloudServerFrac float64

	// ProviderWeights is the relative share of each cloud provider among
	// cloud servers (Fig. 5: choopa 29.3%, top-3 51.9%).
	ProviderWeights map[string]float64
	// CloudCountryWeights picks the country of a cloud node given its
	// provider has presence there (applied as a filter over the
	// provider's footprint).
	CloudCountryWeights map[string]float64
	// ResidentialCountryWeights picks countries for non-cloud nodes and
	// NAT clients.
	ResidentialCountryWeights map[string]float64

	// Churn. Cloud servers are long-lived; non-cloud servers and clients
	// cycle. Probabilities are per tick (one tick = one virtual hour).
	CloudOfflineProb    float64 // P(online cloud node goes offline)
	CloudOnlineProb     float64 // P(offline cloud node returns)
	NonCloudOfflineProb float64
	NonCloudOnlineProb  float64
	// RotateIPProb is the chance a returning non-cloud node has a new
	// residential IP (DHCP churn) — what inflates G-IP counts.
	RotateIPProb float64
	// RegenerateIDProb is the chance a returning non-cloud node comes
	// back with a fresh peer ID (single-interaction users).
	RegenerateIDProb float64

	// Content.
	PlatformCIDs int     // persistent CIDs per storage platform
	UserCIDs     int     // ephemeral user-published CIDs (catalogue)
	ZipfExponent float64 // request popularity skew
	// BogusCIDFrac is the fraction of requests targeting non-existent
	// content (exercising the Hydra amplification DoS vector).
	BogusCIDFrac float64

	// Traffic volume.
	RequestsPerTick int
	// GatewayTrafficShare is the fraction of retrievals entering through
	// HTTP gateways (incl. the ipfs-bank-style platform).
	GatewayTrafficShare float64
	// PlatformAdvertiseEvery is how many ticks between full catalogue
	// re-advertisements by storage platforms (24 = daily).
	PlatformAdvertiseEvery int

	// Bitswap connectivity.
	BitswapDegree   int     // neighbours per ordinary node
	MonitorCoverage float64 // fraction of nodes Bitswap-connected to the monitor

	// Hydra.
	HydraHeads            int
	HydraProactiveLookups bool
	// PLHydraCount is the number of Protocol Labs production Hydra
	// deployments besides the measurement vantage (the paper observed the
	// fleet as a handful of AWS deployments; counterfactuals set 0).
	PLHydraCount int

	// Gateways: number of ordinary public gateways besides the big
	// Cloudflare-style one and the ipfs-bank platform.
	SmallGateways int
	// CloudflareGatewayNodes is the overlay-node count of the big CDN
	// gateway.
	CloudflareGatewayNodes int

	// NetProfile selects the per-link impairment model (netsim.LinkProfile):
	// a preset name ("net.ideal", "net.measured", "net.degraded") or a raw
	// grammar spec ("cloud-cloud=5ms±2;..."). Empty means net.ideal — the
	// zero-latency identity, which reproduces the pre-model figures
	// exactly. Value-typed, so Config.Clone and the canonical config hash
	// cover it; a timeline epoch that rewrites it re-installs the model
	// mid-run (World.ApplyRewrite).
	NetProfile string

	// RetainTrace keeps the raw event logs of the monitoring vantage
	// points (Bitswap monitor, vantage Hydra) behind Monitor.Log() /
	// Hydra.Log(), and the raw per-phase timing samples. It is the one
	// retention switch, meant for tests (the sink-vs-log and
	// sketch-vs-exact equivalence suites, event-level determinism
	// checks), and it must be set before the world is built. Off by
	// default: every analysis folds into the streaming trace.Accum as
	// events happen, and retaining the full trace of a default-scale
	// campaign costs gigabytes.
	//
	// The field stays in Config although no run request can set it: its
	// line is hashed by Digest, and the %+v rendering of the config is
	// hashed into every snapshot digest, so removing it would move every
	// run key and every timeline.digest row. Only tests set it, so the
	// production-reach gate allowlists it together with its four raw-trace
	// readers: Hydra.Log, Monitor.Log, TimingSink.Raw and Log.Events. All
	// five leave together.
	RetainTrace bool

	// Attack configures the adversarial attack.* scenario family
	// (attack.go). The zero value means no attack; interventions flip
	// the switches and LaunchAttacks reads the parameters.
	Attack AttackConfig
}

// AttackConfig selects and parameterizes the adversarial scenarios.
// All fields are value-typed so Config.Clone covers them, and the whole
// struct is pinned by the snapshot's canonical config hash — a timeline
// epoch that flips a switch mid-run changes every subsequent digest.
type AttackConfig struct {
	// Eclipse launches the sybil-eclipse attack: reachable sybil swarms
	// minted in a keyspace band around each target CID flood the
	// resolver-neighbourhood routing tables.
	Eclipse bool
	// Spam launches provider-record flooding from an unreachable
	// spammer identity, stressing the Created/Pruned/Stored expiry
	// ledger of the targeted resolvers.
	Spam bool
	// Stampede launches hot-CID request surges against the public
	// gateways with cache-poisoned responses for the target CIDs.
	Stampede bool
	// Censor launches the targeted-censorship composite: the eclipse
	// plus a permanent outage of the platform cluster owning each
	// target CID.
	Censor bool

	// Parameters. Zero selects the default (WithDefaults). The attack
	// package's Parse and Spec are the -attack-params grammar over them.
	Band            int // min common-prefix bits shared by sybil keys and their target
	SybilsPerTarget int // sybil identities minted per target CID
	Targets         int // number of targeted CIDs (head of the persistent catalogue)
	SpamPerTick     int // distinct spam CIDs advertised per tick
	StampedePerTick int // gateway requests for target CIDs per tick
	PoisonCIDs      int // number of target CIDs whose gateway cache entries are poisoned
}

// Any reports whether any attack is switched on.
func (a AttackConfig) Any() bool {
	return a.Eclipse || a.Spam || a.Stampede || a.Censor
}

// DefaultConfig returns the laptop-scale calibration used by the
// experiment harness. Populations are ~1/12 of the paper's; all reported
// quantities are shares, which are scale-free.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Servers:         1600,
		NATClients:      700,
		CloudServerFrac: 0.77,
		ProviderWeights: map[string]float64{
			ipdb.Choopa:       0.360,
			ipdb.Vultr:        0.130,
			ipdb.Contabo:      0.120,
			ipdb.AmazonAWS:    0.060,
			ipdb.DigitalOcean: 0.060,
			ipdb.Hetzner:      0.060,
			ipdb.GoogleCloud:  0.040,
			ipdb.OVH:          0.035,
			ipdb.Azure:        0.030,
			ipdb.OracleCloud:  0.025,
			ipdb.Linode:       0.025,
			ipdb.Alibaba:      0.020,
			ipdb.Tencent:      0.015,
			ipdb.PacketHost:   0.015,
			ipdb.Leaseweb:     0.015,
			ipdb.DataCamp:     0.011,
			ipdb.Cloudflare:   0.020,
		},
		CloudCountryWeights: map[string]float64{
			"US": 0.50, "DE": 0.16, "KR": 0.07, "GB": 0.05, "FR": 0.04,
			"SG": 0.04, "NL": 0.03, "JP": 0.03, "FI": 0.02, "IE": 0.02,
			"CA": 0.02, "AU": 0.02,
		},
		ResidentialCountryWeights: map[string]float64{
			"US": 0.33, "DE": 0.09, "CN": 0.12, "KR": 0.05, "GB": 0.05,
			"FR": 0.05, "RU": 0.05, "PL": 0.04, "JP": 0.04, "CA": 0.03,
			"NL": 0.03, "BR": 0.03, "IN": 0.03, "AU": 0.02, "IT": 0.02,
			"SE": 0.02,
		},
		CloudOfflineProb:       0.002,
		CloudOnlineProb:        0.5,
		NonCloudOfflineProb:    0.06,
		NonCloudOnlineProb:     0.12,
		RotateIPProb:           0.65,
		RegenerateIDProb:       0.10,
		PlatformCIDs:           250,
		UserCIDs:               1500,
		ZipfExponent:           1.1,
		BogusCIDFrac:           0.12,
		RequestsPerTick:        200,
		GatewayTrafficShare:    0.38,
		PlatformAdvertiseEvery: 24,
		BitswapDegree:          25,
		MonitorCoverage:        0.8,
		HydraHeads:             20,
		HydraProactiveLookups:  true,
		PLHydraCount:           6,
		SmallGateways:          6,
		CloudflareGatewayNodes: 10,
	}
}

// Scaled returns a deep copy of the config with population and traffic
// scaled by f — the Clone-based scaling hook behind both the -scale flag
// and the scale.* scenario presets. Populations, content volume, request
// rate and the gateway ecosystem scale together; per-node behaviour
// (churn rates, traffic mix, Hydra sizing) is intensive and stays fixed,
// so every reported share remains calibrated at any scale.
func (c Config) Scaled(f float64) Config {
	c = c.Clone()
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Servers = scale(c.Servers)
	c.NATClients = scale(c.NATClients)
	c.PlatformCIDs = scale(c.PlatformCIDs)
	c.UserCIDs = scale(c.UserCIDs)
	c.RequestsPerTick = scale(c.RequestsPerTick)
	c.SmallGateways = scale(c.SmallGateways)
	c.CloudflareGatewayNodes = scale(c.CloudflareGatewayNodes)
	return c
}

// Clone returns a deep copy of the config: the weight maps are copied, so
// rewriting the clone (as counterfactual interventions do) never aliases
// into the original. Everything else is value-copied.
func (c Config) Clone() Config {
	c.ProviderWeights = maps.Clone(c.ProviderWeights)
	c.CloudCountryWeights = maps.Clone(c.CloudCountryWeights)
	c.ResidentialCountryWeights = maps.Clone(c.ResidentialCountryWeights)
	return c
}
