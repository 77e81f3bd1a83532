package simtest

import (
	"slices"
	"testing"

	"tcsb/internal/ids"
)

func TestBuildServersDeterministic(t *testing.T) {
	a := BuildServers(50)
	b := BuildServers(50)
	if len(a.Nodes) != 50 || len(b.Nodes) != 50 {
		t.Fatalf("node counts: %d, %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i].ID() != b.Nodes[i].ID() {
			t.Fatalf("node %d IDs differ across identical builds", i)
		}
		// Every contact, nearest to the zero key first.
		ta := a.Nodes[i].RoutingTable().AppendNearest(nil, ids.Key{}, len(a.Nodes))
		tb := b.Nodes[i].RoutingTable().AppendNearest(nil, ids.Key{}, len(b.Nodes))
		if !slices.Equal(ta, tb) {
			t.Fatalf("node %d tables differ", i)
		}
	}
	if len(a.Nodes[0].RoutingTable().AppendNearest(nil, ids.Key{}, 1)) == 0 {
		t.Fatal("oracle fill left empty tables")
	}
}

func TestSeeds(t *testing.T) {
	n := BuildServers(10)
	seeds := n.Seeds(3)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	for i, s := range seeds {
		if s.ID != n.Nodes[i].ID() {
			t.Fatalf("seed %d is not node %d", i, i)
		}
		if len(s.Addrs) == 0 {
			t.Fatalf("seed %d has no addresses", i)
		}
	}
	if got := n.Seeds(99); len(got) != 10 {
		t.Fatalf("oversized request returned %d seeds", len(got))
	}
}
