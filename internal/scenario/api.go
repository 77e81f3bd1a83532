package scenario

import (
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// SeedsNear returns PeerInfos of up to n online servers closest to
// target — walk entry points for collectors and probes.
func (w *World) SeedsNear(target ids.Key, n int) []netsim.PeerInfo {
	var out []netsim.PeerInfo
	for _, p := range w.nearestServers(target, 4*n) {
		if w.Net.Online(p) {
			out = append(out, w.Net.Info(p))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// ServerIDs returns the current DHT server identities (ordinary,
// platform and gateway nodes).
func (w *World) ServerIDs() []ids.PeerID { return append([]ids.PeerID(nil), w.servers...) }

// ClientIDs returns the current NAT-ed client identities.
func (w *World) ClientIDs() []ids.PeerID { return append([]ids.PeerID(nil), w.clients...) }

// LiveCIDs returns the currently provided CIDs.
func (w *World) LiveCIDs() []ids.CID {
	out := make([]ids.CID, 0, len(w.live))
	for _, idx := range w.live {
		out = append(out, w.catalog[idx].cid)
	}
	return out
}

// ContentInfo reports a CID's catalogue state: its publisher, whether it
// is persistent, and whether it is currently live (provided). ok is
// false for CIDs outside the catalogue (e.g. bogus request targets).
func (w *World) ContentInfo(c ids.CID) (owner ids.PeerID, persistent, live, ok bool) {
	for i := range w.catalog {
		if w.catalog[i].cid == c {
			owner = w.catalog[i].owner
			persistent = w.catalog[i].persistent
			for _, idx := range w.live {
				if idx == i {
					live = true
					break
				}
			}
			return owner, persistent, live, true
		}
	}
	return ids.PeerID{}, false, false, false
}
