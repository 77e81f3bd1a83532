package provrecords

// ContentCloudStats summarises the per-CID cloud reliance of content
// (Fig. 16). NAT-ed providers count as non-cloud, as in the paper.
type ContentCloudStats struct {
	// CIDs is the number of CIDs with at least one reachable provider.
	CIDs int
	// AtLeastOneCloud is the fraction of CIDs with >= 1 cloud provider
	// (the paper: ~95%).
	AtLeastOneCloud float64
	// MajorityCloud is the fraction with >= half cloud providers (~91%).
	MajorityCloud float64
	// OnlyCloud is the fraction provided exclusively by cloud peers
	// (~23%).
	OnlyCloud float64
	// AtLeastOneNonCloud is the complementary reading (~77%).
	AtLeastOneNonCloud float64
}

// ContentCloud computes Fig. 16 from a collection. Each (CID, day) entry
// with at least one reachable provider contributes one sample.
func ContentCloud(col *Collection, isCloud CloudFunc) ContentCloudStats {
	var out ContentCloudStats
	for _, cr := range col.PerCID {
		if len(cr.Records) == 0 {
			continue
		}
		cloud := 0
		for _, rec := range cr.Records {
			// NAT-ed providers are classified non-cloud here, per the
			// paper's Fig. 16 methodology.
			if ClassifyRecord(rec, isCloud) == CloudBased {
				cloud++
			}
		}
		total := len(cr.Records)
		out.CIDs++
		if cloud >= 1 {
			out.AtLeastOneCloud++
		}
		if 2*cloud >= total {
			out.MajorityCloud++
		}
		if cloud == total {
			out.OnlyCloud++
		}
		if cloud < total {
			out.AtLeastOneNonCloud++
		}
	}
	if out.CIDs > 0 {
		n := float64(out.CIDs)
		out.AtLeastOneCloud /= n
		out.MajorityCloud /= n
		out.OnlyCloud /= n
		out.AtLeastOneNonCloud /= n
	}
	return out
}
