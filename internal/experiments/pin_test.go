package experiments_test

// Cross-commit output pins. Every other determinism test compares two
// runs of one build (workers 1 vs 8, a cache hit vs a fresh run), so a
// change that moves the output the same way on both sides passes them
// all. These tests pin the sha256 of the rendered
// bytes of one small request per execution mode instead: a refactor that
// claims "same bytes" is checked against the bytes the previous commit
// printed.
//
// A failure prints the digest it got. A deliberate move is a one-line
// edit here, and the change that makes it must say which experiment's
// bytes moved and why.
//
// This is an external test package because internal/analyze imports
// internal/experiments.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tcsb/internal/analyze"
	"tcsb/internal/core"
	"tcsb/internal/experiments"
	"tcsb/internal/scenario"
)

// checkPin fails the test when the sha256 of got differs from want.
func checkPin(t *testing.T, label string, got []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(got)
	if h := hex.EncodeToString(sum[:]); h != want {
		t.Errorf("%s: output sha256 is %s, pinned %s", label, h, want)
	}
}

func resolve(t *testing.T, req core.RunRequest) *experiments.Resolved {
	t.Helper()
	res, err := experiments.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func jsonl(t *testing.T, results []experiments.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.RenderJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one small campaign per execution mode")
	}
	cases := []struct {
		name string
		req  core.RunRequest
		want string
	}{
		{"plain", core.RunRequest{Seed: 1, Scale: 0.1, Days: 1},
			"bc3bf7d9e5e195e1b4c973a008f8d4c9764daf509d49f6214e6aee24fb1239f5"},
		{"whatif", core.RunRequest{Seed: 2, Scale: 0.1, Days: 1, WhatIf: "hydra-dissolution"},
			"17f69a86cd72c589f0774bb5e1408b618c49ce9524e551fe55cd5332420fa4cf"},
		{"attack", core.RunRequest{Seed: 1, Scale: 0.1, Days: 1,
			WhatIf: "attack.sybil-eclipse,churn-2x", AttackParams: "band=16;sybils=24"},
			"d144b924d2b9fa2b213c645c0fba3f5fc487550566d3c311b1fd9481f63f79c4"},
		{"net.measured", core.RunRequest{Seed: 1, Scale: 0.1, Days: 1, NetProfile: "net.measured"},
			"db1a7ddd183db740a78a2f858303656bf8df0d95fdbc6beb35eaeb6cf31dede6"},
		{"timeline", core.RunRequest{Seed: 1, Scale: 0.1, Timeline: "epochs=4;days=1;@2:hydra-dissolution"},
			"c792c47a59960a13f378074fef9848e6bc0fc1355d0b1817c1248458f716045f"},
		{"drift", core.RunRequest{Seed: 1, Scale: 0.1, Timeline: "epochs=4;days=1;@1:arrive:choopa:40;@2:depart:hetzner_online;@3:churn:2"},
			"0602deed456609820436cbaa2f9a6e11d92a6019dfbc971d4d2d5e1e7cb298e8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			results, err := resolve(t, c.req).Execute(nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPin(t, "jsonl", jsonl(t, results), c.want)
			if c.name != "plain" {
				return
			}
			var text bytes.Buffer
			if err := experiments.RenderText(&text, results); err != nil {
				t.Fatal(err)
			}
			checkPin(t, "text", text.Bytes(),
				"55afe1a9ed1fcfaf7fa29105ba3a76c6561b8d39d0704b11bb7f778930f9c60e")
		})
	}
}

// TestAnalyzeReportPinned archives two seeds of one request shape and
// pins the analyze report against the checked-in expectations.
func TestAnalyzeReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	dir := t.TempDir()
	for _, seed := range []int64{1, 2} {
		res := resolve(t, core.RunRequest{Seed: seed, Scale: 0.05, Days: 1, Only: []string{"table1", "fig3"}})
		out, err := res.ExecuteJSONL(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := analyze.WriteArchive(dir, res.Key, res.Req, out); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := analyze.LoadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := analyze.LoadExpectations("../../expectations.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := analyze.RenderJSON(&buf, analyze.Analyze(runs, exp)); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "analyze report", buf.Bytes(),
		"30483d9a88aa5ec33c8aeb8ac8808de0c787497ab0ac03ac04c23763baf6bd83")
}

// TestInternDigestPinned pins the handle tables of one small campaign
// at two worker counts. Handles never reach the output, so the byte
// pins above cannot see a change in what gets interned or in what
// order; routing-table adds intern the contacts they store, and this
// holds them to interning nothing the world had not interned already.
func TestInternDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one small campaign at two worker counts")
	}
	const want = uint64(0x12f60dacb4109ba3)
	for _, workers := range []int{1, 2} {
		res := resolve(t, core.RunRequest{Seed: 1, Scale: 0.05, Days: 1, Workers: workers})
		o := core.Observe(scenario.NewWorld(res.Cfg), res.RC)
		if got := o.World.Snapshot().InternDigest; got != want {
			t.Errorf("workers=%d: InternDigest %#x, pinned %#x", workers, got, want)
		}
	}
}
