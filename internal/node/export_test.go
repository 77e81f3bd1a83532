package node

import (
	"tcsb/internal/ids"
	"tcsb/internal/netsim"
)

// Observers the tests read a node and its provider store through.

// HasBlock reports whether the node stores c.
func (n *Node) HasBlock(c ids.CID) bool { return n.blocks[c] }

// CIDs returns the number of distinct CIDs with at least one stored
// (possibly expired) record.
func (s *ProviderStore) CIDs() int { return len(s.byCID) }

// Len returns the number of live records at time now.
func (s *ProviderStore) Len(now netsim.Time) int {
	total := 0
	for _, recs := range s.byCID {
		for _, r := range recs {
			if now-r.received < s.ttl {
				total++
			}
		}
	}
	return total
}

// ExpireTouched returns how many records Expire has visited over the
// store's lifetime — the cost metric the sweep-cost regression test
// pins (wall time would be flaky; visited records are exact).
func (s *ProviderStore) ExpireTouched() int64 { return s.touched }
