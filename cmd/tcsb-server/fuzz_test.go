package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"tcsb/internal/core"
)

// FuzzRunRequest feeds arbitrary POST /v1/runs bodies through the
// server's request path up to the cache lookup: the strict decoder,
// then Resolve with the fleet clamp. No campaign runs. Properties:
//   - no body panics either step;
//   - canonicalization is a fixed point: an accepted body's canonical
//     request re-resolves to itself and to the same key, so a run
//     archived under its canonical request primes under the key it was
//     served with.
//
// The seed corpus under testdata/fuzz/FuzzRunRequest holds one valid
// body per mode and the rejected shapes TestRunRequestValidation pins
// (unknown field, trailing data, negative scale, days in timeline
// mode, bad what-if, timeline, attack and net specs); `go test` replays
// it even without -fuzz.
func FuzzRunRequest(f *testing.F) {
	s := testServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req core.RunRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		if err := decodeRequest(r, &req); err != nil {
			return
		}
		res, err := s.resolveForFleet(req)
		if err != nil {
			return
		}
		again, err := s.resolveForFleet(res.Req)
		if err != nil {
			t.Fatalf("canonical request %+v (from %q) no longer resolves: %v", res.Req, body, err)
		}
		if !reflect.DeepEqual(again.Req, res.Req) {
			t.Fatalf("canonical request is not a fixed point:\n%+v\nre-resolves to\n%+v", res.Req, again.Req)
		}
		if again.Key != res.Key {
			t.Fatalf("canonical request %+v re-resolves to key %s, want %s", res.Req, again.Key, res.Key)
		}
	})
}
