package main

import (
	"bytes"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/experiments"
)

func executeJSONL(t *testing.T, req core.RunRequest) []byte {
	t.Helper()
	res, err := experiments.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.ExecuteJSONL(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tracedPass runs one traced pass and checks that the spans cover the
// pass's wall time to within 2%.
func tracedPass(t *testing.T, req core.RunRequest) ([]byte, passTotals) {
	t.Helper()
	rec := newRecorder()
	rec.beginPass("pass0")
	out, err := tracedCLI(rec, req)
	rec.endPass()
	if err != nil {
		t.Fatal(err)
	}
	p := rec.passes()[0]
	if un := (p.Wall - p.attributed()) / p.Wall; un < 0 || un > 0.02 {
		t.Errorf("spans cover %.4fs of a %.4fs pass", p.attributed(), p.Wall)
	}
	return out, p
}

// The traced drivers reproduce the engine's own output byte for byte.
func TestTracedDriversMatchExecute(t *testing.T) {
	for _, req := range []core.RunRequest{
		{Seed: 3, Scale: 0.05, Days: 1, Workers: 2, Parallel: 2},
		{Seed: 3, Scale: 0.05, Days: 1, WhatIf: "hydra-dissolution", Workers: 2, Parallel: 2},
	} {
		got, p := tracedPass(t, req)
		if want := executeJSONL(t, req); !bytes.Equal(got, want) {
			t.Errorf("%+v: traced output (sha256 %s) differs from ExecuteJSONL (sha256 %s)", req, sha(got), sha(want))
		}
		for _, l := range heavyLayers {
			if tot := p.Layers[l]; tot == nil || tot.Calls == 0 || tot.RPCs == 0 {
				t.Errorf("%+v: layer %s recorded %+v", req, l, tot)
			}
		}
		if req.WhatIf != "" && pairIdle([]passTotals{p}) <= 0 {
			t.Errorf("paired pass has no lane imbalance: %v", p.Lanes)
		}
	}
}

// The traced timeline reaches the same epoch-boundary digests the
// engine's timeline.digest rows pin.
func TestTracedTimelineMatchesDigests(t *testing.T) {
	req := core.RunRequest{Seed: 3, Scale: 0.05, Timeline: "epochs=3;@1:hydra-dissolution",
		NetProfile: "net.measured", Workers: 2, Parallel: 2}
	got, p := tracedPass(t, req)
	want, err := digestLines(executeJSONL(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("traced digests\n%s\nengine digests\n%s", got, want)
	}
	if p.Layers[layerApply] == nil || p.Layers[layerSnapshot].Calls != 4 {
		t.Errorf("timeline layers: apply %+v, snapshot %+v", p.Layers[layerApply], p.Layers[layerSnapshot])
	}
}

// The replayed server path serves a miss with the engine's bytes, a
// repeat from the cache, and primes every archived run on boot.
func TestServeReplay(t *testing.T) {
	rec := newRecorder()
	rp := newServeReplay(rec, servePerRun, t.TempDir())
	req := serveRequest(7, 0)
	req.Scale = 0.05
	body := requestBody(req)
	rec.beginPass("pass0")
	cold, hit, err := rp.post(body)
	if err != nil || hit {
		t.Fatalf("first post: hit=%v err=%v", hit, err)
	}
	warm, hit, err := rp.post(body)
	if err != nil || !hit || !bytes.Equal(warm, cold) {
		t.Fatalf("second post: hit=%v err=%v same=%v", hit, err, bytes.Equal(warm, cold))
	}
	n, err := rp.prime()
	rec.endPass()
	if err != nil || n != 1 {
		t.Fatalf("prime: %d runs, err %v", n, err)
	}
	if want := executeJSONL(t, req); !bytes.Equal(cold, want) {
		t.Errorf("replayed response differs from ExecuteJSONL")
	}
	if got := rec.passes()[0].Layers[layerCacheGet].Calls; got != 2 {
		t.Errorf("runcache.get calls = %d, want 2", got)
	}
}
