package scenario

import "tcsb/internal/ids"

// Counterfactual intervention hooks: surgical rewrites of a built world
// that internal/counterfactual composes into named what-if scenarios.
// Every hook is deterministic (no RNG draws) and leaves the world in a
// state the tick engine evolves exactly as it would any other world, so
// intervention campaigns inherit the byte-identical-across-Workers
// guarantee unchanged.
//
// The measurement vantage points — the Bitswap monitor and the logging
// Hydra head set — are never removed: they are the authors' instruments,
// and a counterfactual without a telescope would have no datasets to
// diff. Interventions may still silence the vantage Hydra's *active*
// behaviour (proactive cache-filling lookups) via Config.

// DissolvePLHydras shuts down the Protocol Labs production Hydra fleet:
// every head of every PL deployment is detached from the network and the
// resolver ring is rebuilt without them. Routing tables across the
// population still carry the dead heads — exactly the ghost entries a
// real dissolution would leave behind until bucket refreshes age them
// out — so dials at them fail rather than vanish.
func (w *World) DissolvePLHydras() {
	for _, h := range w.PLHydras {
		for _, head := range h.Heads() {
			w.Net.Detach(head)
		}
	}
	w.PLHydras = nil
	w.rebuildRing()
}

// ProviderOutage takes every actor hosted by the given cloud provider
// offline permanently: the region never comes back, churn cannot revive
// the nodes (PinnedOffline), and platform clusters hosted there stop
// serving. It returns the number of actors pinned (whether they were
// online or already churned offline when the outage hit). Hydra heads
// are not Actors; callers modelling an AWS outage compose this with
// DissolvePLHydras.
func (w *World) ProviderOutage(provider string) int {
	pinned := 0
	for _, id := range w.order {
		a := w.Actors[id]
		if a == nil || a.Provider != provider {
			continue
		}
		w.pinActorOffline(a)
		pinned++
	}
	return pinned
}

// ProviderArrival adds n fresh cloud DHT servers hosted by the given
// provider to a running world — the population-drift counterpart of
// ProviderOutage, fired by timeline schedules ("@3:arrive:choopa:120").
// New arrivals join exactly like construction-time servers: allocator
// IPs inside the provider's footprint, a realistic routing table, and
// Bitswap wiring (monitor coverage included). They append to the order
// and server role lists, so existing actors keep their shard positions
// and the evolution stays byte-identical across Workers values. It
// returns the new identities.
//
// Determinism: all draws come from the serial master RNG, and the hook
// runs only on the serial path between epochs (never inside a tick
// phase), like every other intervention.
func (w *World) ProviderArrival(provider string, n int) []ids.PeerID {
	out := make([]ids.PeerID, 0, n)
	for i := 0; i < n; i++ {
		country := w.cloudCountryFor(provider)
		a := w.addServerActor(true, provider, country, "", 0.25)
		out = append(out, a.ID)
	}
	w.rebuildRing()
	for _, id := range out {
		a := w.Actors[id]
		w.fillTableOf(a)
		w.wireBitswapOf(a)
	}
	return out
}

// ApplyRewrite applies a config rewrite to a *running* world and
// re-syncs the derived knobs that are otherwise read only at
// construction time (the vantage Hydra's proactive-lookup switch and
// the per-link impairment model). Behavioural fields — churn probabilities, traffic mix,
// request volume — take effect from the next tick; population-shape
// fields (Servers, CloudServerFrac, …) are construction-time inputs and
// a mid-run rewrite of them is deliberately a no-op. Timeline schedules
// use this to fire config-level interventions at epoch boundaries.
func (w *World) ApplyRewrite(f func(*Config)) {
	f(&w.Cfg)
	w.Hydra.SetProactiveLookups(w.Cfg.HydraProactiveLookups)
	w.installLinkModel()
}

// ScaleResidentialChurn multiplies the residential churn aggressiveness
// by factor (offline probability, IP rotation and identity regeneration
// on return), clamping each probability to 1 — the timeline engine's
// "@E:churn:F" drift action. factor < 1 calms the fringe down.
func (w *World) ScaleResidentialChurn(factor float64) {
	w.ApplyRewrite(func(c *Config) {
		clamp := func(p float64) float64 {
			if p > 1 {
				return 1
			}
			return p
		}
		c.NonCloudOfflineProb = clamp(c.NonCloudOfflineProb * factor)
		c.RotateIPProb = clamp(c.RotateIPProb * factor)
		c.RegenerateIDProb = clamp(c.RegenerateIDProb * factor)
	})
}

// PinnedOfflineCount reports how many actors an intervention has
// permanently removed (0 in a baseline world) — used by the invariant
// suite to assert interventions actually bit.
func (w *World) PinnedOfflineCount() int {
	n := 0
	for _, a := range w.Actors {
		if a.PinnedOffline {
			n++
		}
	}
	return n
}
