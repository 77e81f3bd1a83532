package provrecords

import "tcsb/internal/ids"

// CIDs returns the number of (CID, day) collections gathered.
func (col *Collection) CIDs() int { return len(col.PerCID) }

// UniqueProviders returns the distinct provider peer IDs across the
// collection.
func (col *Collection) UniqueProviders() int {
	set := make(map[ids.PeerID]bool)
	for _, cr := range col.PerCID {
		for _, r := range cr.Records {
			set[r.Provider.ID] = true
		}
	}
	return len(set)
}

// TotalRecords returns the number of verified records collected.
func (col *Collection) TotalRecords() int {
	total := 0
	for _, cr := range col.PerCID {
		total += len(cr.Records)
	}
	return total
}
