package provrecords

import (
	"math"
	"net/netip"
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
)

var (
	cloudIP1 = netip.MustParseAddr("52.0.0.1")
	cloudIP2 = netip.MustParseAddr("45.32.0.1")
	homeIP1  = netip.MustParseAddr("91.0.0.1")
	homeIP2  = netip.MustParseAddr("73.0.0.1")
)

func isCloud(ip netip.Addr) bool {
	return ip == cloudIP1 || ip == cloudIP2
}

func direct(id uint64, ip netip.Addr) netsim.ProviderRecord {
	return netsim.ProviderRecord{Provider: netsim.PeerInfo{
		ID:    ids.PeerIDFromSeed(id),
		Addrs: []maddr.Addr{maddr.New(ip, maddr.TCP, 4001)},
	}}
}

func relayed(id uint64, relayIP netip.Addr) netsim.ProviderRecord {
	return netsim.ProviderRecord{Provider: netsim.PeerInfo{
		ID:    ids.PeerIDFromSeed(id),
		Addrs: []maddr.Addr{maddr.NewCircuit(relayIP, maddr.TCP, 4001, "12D3KooRelay")},
	}}
}

func TestClassifyRecord(t *testing.T) {
	cases := []struct {
		rec  netsim.ProviderRecord
		want Class
	}{
		{direct(1, cloudIP1), CloudBased},
		{direct(2, homeIP1), NonCloudBased},
		{relayed(3, cloudIP1), NATed},
		{netsim.ProviderRecord{Provider: netsim.PeerInfo{
			ID: ids.PeerIDFromSeed(4),
			Addrs: []maddr.Addr{
				maddr.New(cloudIP1, maddr.TCP, 4001),
				maddr.New(homeIP1, maddr.TCP, 4001),
			},
		}}, Hybrid},
		{netsim.ProviderRecord{Provider: netsim.PeerInfo{ID: ids.PeerIDFromSeed(5)}}, NATed},
	}
	for i, c := range cases {
		if got := ClassifyRecord(c.rec, isCloud); got != c.want {
			t.Errorf("case %d: class = %v, want %v", i, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if NATed.String() != "NAT-ed" || CloudBased.String() != "cloud" ||
		NonCloudBased.String() != "non-cloud" || Hybrid.String() != "hybrid" {
		t.Fatal("class labels wrong")
	}
}

func collection() *Collection {
	col := &Collection{}
	// CID A: cloud + NAT-ed providers.
	col.PerCID = append(col.PerCID, CIDRecords{
		Records: []netsim.ProviderRecord{direct(1, cloudIP1), relayed(2, cloudIP2)},
	})
	// CID B: only cloud.
	col.PerCID = append(col.PerCID, CIDRecords{
		Records: []netsim.ProviderRecord{direct(1, cloudIP1), direct(3, cloudIP2)},
	})
	// CID C: only non-cloud.
	col.PerCID = append(col.PerCID, CIDRecords{
		Records: []netsim.ProviderRecord{direct(4, homeIP1)},
	})
	// CID D: popular cloud provider again + NAT via non-cloud relay.
	col.PerCID = append(col.PerCID, CIDRecords{
		Records: []netsim.ProviderRecord{direct(1, cloudIP1), relayed(5, homeIP2)},
	})
	return col
}

func TestProfiles(t *testing.T) {
	profiles := Profiles(collection(), isCloud)
	if len(profiles) != 5 {
		t.Fatalf("%d profiles, want 5", len(profiles))
	}
	// Profiles follow the providers' first appearance: peers 1 to 5.
	p1 := profiles[0]
	if p1.Appearances != 3 || p1.Class != CloudBased {
		t.Errorf("peer 1 profile = %+v", p1)
	}
	p2 := profiles[1]
	if p2.Class != NATed || len(p2.RelayIPs) != 1 || p2.RelayIPs[0] != cloudIP2 {
		t.Errorf("peer 2 profile = %+v", p2)
	}
}

func TestClassShares(t *testing.T) {
	shares := ClassShares(Profiles(collection(), isCloud))
	// 5 providers: 2 cloud (1,3), 1 non-cloud (4), 2 NAT-ed (2,5).
	if shares[CloudBased] != 0.4 {
		t.Errorf("cloud share = %v, want 0.4", shares[CloudBased])
	}
	if shares[NATed] != 0.4 {
		t.Errorf("NAT share = %v, want 0.4", shares[NATed])
	}
	if shares[NonCloudBased] != 0.2 {
		t.Errorf("non-cloud share = %v, want 0.2", shares[NonCloudBased])
	}
}

func TestRelayCloudShare(t *testing.T) {
	profiles := Profiles(collection(), isCloud)
	// Two NAT-ed providers: one relays through cloud, one through home.
	got := RelayCloudShare(profiles, isCloud)
	if got != 0.5 {
		t.Fatalf("relay cloud share = %v, want 0.5", got)
	}
}

func TestClassAppearanceShares(t *testing.T) {
	profiles := Profiles(collection(), isCloud)
	shares := ClassAppearanceShares(profiles)
	// Appearances: peer1 cloud 3, peer3 cloud 1, peer4 non-cloud 1,
	// peer2 NAT 1, peer5 NAT 1 → cloud 4/7.
	if math.Abs(shares[CloudBased]-4.0/7) > 1e-12 {
		t.Errorf("cloud appearance share = %v, want 4/7", shares[CloudBased])
	}
}

func TestPopularityPareto(t *testing.T) {
	pts := PopularityPareto(Profiles(collection(), isCloud))
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// Top provider (peer 1, 3 of 7 appearances).
	if math.Abs(pts[0].WeightFraction-3.0/7) > 1e-12 {
		t.Errorf("top provider share = %v, want 3/7", pts[0].WeightFraction)
	}
}

func TestContentCloud(t *testing.T) {
	// NAT-ed providers count as non-cloud in Fig. 16.
	got := ContentCloud(collection(), isCloud)
	if got.CIDs != 4 {
		t.Fatalf("CIDs = %d", got.CIDs)
	}
	// CID A: 1/2 cloud. B: 2/2. C: 0/1. D: 1/2.
	if got.AtLeastOneCloud != 0.75 {
		t.Errorf("AtLeastOneCloud = %v, want 0.75", got.AtLeastOneCloud)
	}
	if got.MajorityCloud != 0.75 {
		t.Errorf("MajorityCloud = %v, want 0.75", got.MajorityCloud)
	}
	if got.OnlyCloud != 0.25 {
		t.Errorf("OnlyCloud = %v, want 0.25", got.OnlyCloud)
	}
	if got.AtLeastOneNonCloud != 0.75 {
		t.Errorf("AtLeastOneNonCloud = %v, want 0.75", got.AtLeastOneNonCloud)
	}
}

func TestContentCloudEmpty(t *testing.T) {
	got := ContentCloud(&Collection{}, isCloud)
	if got.CIDs != 0 || got.AtLeastOneCloud != 0 {
		t.Fatalf("empty collection stats = %+v", got)
	}
}
