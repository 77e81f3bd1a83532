package analyze

import (
	"os"
	"testing"
)

// FuzzParseExpectations feeds arbitrary documents to the expectations
// parser, which reads both the -expectations file and the POST
// /v1/analyze body. Properties:
//   - no document panics the parser;
//   - every rule of an accepted document names a column and sets at
//     least one bound, with min <= max when both are set and
//     non-negative maxRelDelta and maxDriftSlope — the rule shape the
//     bound, delta and drift checks rely on.
//
// The seeds are the checked-in expectations.json, the doctored rule the
// CI analyzer smoke test alerts on, and the rejected shapes
// TestParseExpectationsValidation pins; `go test` replays them even
// without -fuzz.
func FuzzParseExpectations(f *testing.F) {
	checkedIn, err := os.ReadFile("../../expectations.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checkedIn)
	for _, doc := range []string{
		`{"rules":[{"experiment":"fig3","column":"cloud","max":0}]}`,
		`{"rules":[{"table":"Fig","row":"r","column":"c","maxRelDelta":0.05,"maxDriftSlope":0}]}`,
		`{"rules":[]}`,
		`null`,
		`{"ruless":[]}`,
		`{"rules":[{"column":"c","max":1}]} x`,
		`{"rules":[]}{"rules":[]}`,
		`{"rules":[{"max":1}]}`,
		`{"rules":[{"column":"c"}]}`,
		`{"rules":[{"column":"c","min":2,"max":1}]}`,
		`{"rules":[{"column":"c","maxRelDelta":-0.1}]}`,
		`{"rules":[{"column":"c","maxDriftSlope":-1}]}`,
		`{"rules":[{"column":"c","min":1e309}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, err := ParseExpectations(data)
		if err != nil {
			return
		}
		for i, r := range exp.Rules {
			if r.Column == "" {
				t.Fatalf("rule %d of %q accepted without a column", i, data)
			}
			if r.Min == nil && r.Max == nil && r.MaxRelDelta == nil && r.MaxDriftSlope == nil {
				t.Fatalf("rule %d of %q accepted without a bound", i, data)
			}
			if r.Min != nil && r.Max != nil && !(*r.Min <= *r.Max) {
				t.Fatalf("rule %d of %q accepted with min %v > max %v", i, data, *r.Min, *r.Max)
			}
			if r.MaxRelDelta != nil && !(*r.MaxRelDelta >= 0) {
				t.Fatalf("rule %d of %q accepted with maxRelDelta %v", i, data, *r.MaxRelDelta)
			}
			if r.MaxDriftSlope != nil && !(*r.MaxDriftSlope >= 0) {
				t.Fatalf("rule %d of %q accepted with maxDriftSlope %v", i, data, *r.MaxDriftSlope)
			}
		}
	})
}
