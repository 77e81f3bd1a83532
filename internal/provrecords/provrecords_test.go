package provrecords

import (
	"testing"

	"tcsb/internal/ids"
	"tcsb/internal/maddr"
	"tcsb/internal/netsim"
	"tcsb/internal/node"
	"tcsb/internal/simtest"
)

func seedsFunc(net *simtest.Net) func(ids.Key) []netsim.PeerInfo {
	return func(ids.Key) []netsim.PeerInfo { return net.Seeds(3) }
}

func TestCollectOne(t *testing.T) {
	net := simtest.BuildServers(150)
	c := ids.CIDFromSeed(1)
	for i := 0; i < 5; i++ {
		net.Nodes[i].AddBlock(c)
		net.Nodes[i].Provide(nil, c)
	}
	col := NewCollector(net.Network, ids.PeerIDFromSeed(1<<55), seedsFunc(net))
	got := col.CollectOne(nil, c, 0)
	if len(got.Records) != 5 {
		t.Fatalf("collected %d records, want 5", len(got.Records))
	}
	if got.Stale != 0 {
		t.Fatalf("stale = %d, want 0", got.Stale)
	}
}

func TestCollectIgnoresUnreachable(t *testing.T) {
	net := simtest.BuildServers(150)
	c := ids.CIDFromSeed(2)
	for i := 0; i < 4; i++ {
		net.Nodes[i].AddBlock(c)
		net.Nodes[i].Provide(nil, c)
	}
	// Two providers go offline after advertising: stale records.
	net.Network.SetOnline(net.Nodes[0].ID(), false)
	net.Network.SetOnline(net.Nodes[1].ID(), false)

	col := NewCollector(net.Network, ids.PeerIDFromSeed(1<<55), seedsFunc(net))
	got := col.CollectOne(nil, c, 3)
	if len(got.Records) != 2 {
		t.Fatalf("collected %d reachable records, want 2", len(got.Records))
	}
	if got.Stale != 2 {
		t.Fatalf("stale = %d, want 2", got.Stale)
	}
	if got.Day != 3 {
		t.Fatalf("day = %d", got.Day)
	}
}

func TestVerifyNATProvider(t *testing.T) {
	net := simtest.BuildServers(100)
	relay := net.Nodes[0]
	natID := ids.PeerIDFromSeed(9999)
	nat := node.New(natID, net.Network, node.Config{DHTServer: false})
	circuit := maddr.NewCircuit(net.Network.PrimaryIP(relay.ID()), maddr.TCP, 4001, relay.ID().String())
	net.Network.Attach(natID, nat, netsim.HostConfig{
		Reachable: false, Relay: relay.ID(),
		Addrs: []maddr.Addr{circuit},
	})

	rec := netsim.ProviderRecord{Provider: net.Network.Info(natID)}
	if !Verify(net.Network, rec) {
		t.Fatal("NAT provider with live relay should verify")
	}
	net.Network.SetOnline(relay.ID(), false)
	if Verify(net.Network, rec) {
		t.Fatal("NAT provider with dead relay should fail verification")
	}
	net.Network.SetOnline(relay.ID(), true)
	net.Network.SetOnline(natID, false)
	if Verify(net.Network, rec) {
		t.Fatal("offline NAT provider should fail verification")
	}
}

func TestCollectDayAndAggregates(t *testing.T) {
	net := simtest.BuildServers(120)
	var cids []ids.CID
	for i := 0; i < 6; i++ {
		c := ids.CIDFromSeed(uint64(100 + i))
		net.Nodes[i].AddBlock(c)
		net.Nodes[i].Provide(nil, c)
		cids = append(cids, c)
	}
	col := NewCollector(net.Network, ids.PeerIDFromSeed(1<<55), seedsFunc(net))
	var collection Collection
	col.CollectDayParallel(&collection, cids, 0, 1)
	col.CollectDayParallel(&collection, cids[:3], 1, 1)

	if collection.CIDs() != 9 {
		t.Fatalf("CIDs() = %d, want 9", collection.CIDs())
	}
	if collection.UniqueProviders() != 6 {
		t.Fatalf("UniqueProviders = %d, want 6", collection.UniqueProviders())
	}
	if collection.TotalRecords() != 9 {
		t.Fatalf("TotalRecords = %d, want 9", collection.TotalRecords())
	}
}
