package analyze

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"tcsb/internal/core"
	"tcsb/internal/netsim"
)

// fixtureJSONL renders a tiny two-table archive stream: one plain
// metrics table and one epoch-keyed timeline table, parameterized so
// tests can inject longitudinal movement.
func fixtureJSONL(share string, online ...float64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"experiment":"figx","section":"§9","table":{"title":"Fig X — shares","columns":["methodology","cloud","label"],"rows":[["A-N","%s","x"],["G-IP","89.4%%","y"]]}}`+"\n", share)
	rows := make([]string, len(online))
	for i, v := range online {
		rows[i] = fmt.Sprintf(`["%d","%g"]`, i+1, v)
	}
	fmt.Fprintf(&b, `{"experiment":"timeline.population","section":"§5","timeline":"epochs=%d;days=1","table":{"title":"population","columns":["epoch","online"],"rows":[%s]}}`+"\n",
		len(online), strings.Join(rows, ","))
	return []byte(b.String())
}

func fixtureReq(seed int64) core.RunRequest {
	return core.RunRequest{Seed: seed, Scale: 0.05, Days: 1}
}

// writeFixtureArchive archives n seeds of the same shape plus one run
// of a different shape, and returns the directory.
func writeFixtureArchive(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	archive := func(key string, req core.RunRequest, jsonl []byte) {
		t.Helper()
		if err := WriteArchive(dir, key, req, jsonl); err != nil {
			t.Fatal(err)
		}
	}
	archive("aaa1", fixtureReq(1), fixtureJSONL("91.9%", 100, 98, 96))
	archive("aaa2", fixtureReq(2), fixtureJSONL("92.1%", 100, 97, 95))
	archive("bbb1", core.RunRequest{Seed: 1, Scale: 0.05, Days: 2}, fixtureJSONL("50%", 100, 100))
	return dir
}

func TestShapeIgnoresSeedAndConcurrency(t *testing.T) {
	a := core.RunRequest{Seed: 1, Scale: 0.5, Days: 3, Workers: 8, Parallel: 4}
	b := core.RunRequest{Seed: 99, Scale: 0.5, Days: 3, Workers: 1}
	if Shape(a) != Shape(b) {
		t.Fatalf("shapes differ:\n%s\n%s", Shape(a), Shape(b))
	}
	c := core.RunRequest{Seed: 1, Scale: 0.5, Days: 4}
	if Shape(a) == Shape(c) {
		t.Fatal("different days collapsed into one shape")
	}
}

func TestWriteLoadArchiveRoundTrip(t *testing.T) {
	dir := writeFixtureArchive(t)
	runs, err := LoadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	// Key-sorted load order.
	for i, want := range []string{"aaa1", "aaa2", "bbb1"} {
		if runs[i].Key != want {
			t.Fatalf("run %d key %q, want %q", i, runs[i].Key, want)
		}
	}
	if runs[0].Request.Seed != 1 || runs[0].Request.Workers != 0 {
		t.Fatalf("manifest request not canonical: %+v", runs[0].Request)
	}
	if !bytes.Equal(runs[0].Raw, fixtureJSONL("91.9%", 100, 98, 96)) {
		t.Fatal("raw bytes drifted through archive round trip")
	}
	if len(runs[0].Rows) != 2 {
		t.Fatalf("%d parsed rows, want 2", len(runs[0].Rows))
	}

	// Workers/Parallel are zeroed at write time.
	req := fixtureReq(7)
	req.Workers, req.Parallel = 8, 4
	if err := WriteArchive(dir, "ccc1", req, fixtureJSONL("10%", 1, 2)); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(filepath.Join(dir, "ccc1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(mb), "workers") || strings.Contains(string(mb), "parallel") {
		t.Fatalf("manifest leaked concurrency knobs:\n%s", mb)
	}
}

// TestConcurrentWritersOfOneKey archives the same run from many
// goroutines at once, as a CLI -archive-dir run and a server sharing the
// directory may. Every write must succeed and leave one valid run with
// the exact bytes, and no temp file may be left behind.
func TestConcurrentWritersOfOneKey(t *testing.T) {
	online := make([]float64, 20000)
	for i := range online {
		online[i] = float64(i)
	}
	jsonl := fixtureJSONL("91.9%", online...)
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		errs := make([]error, 8)
		netsim.ParallelFor(len(errs), len(errs), func(i int) {
			errs[i] = WriteArchive(dir, "aaa1", fixtureReq(1), jsonl)
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		runs, err := LoadArchive(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(runs) != 1 || !bytes.Equal(runs[0].Raw, jsonl) {
			t.Fatalf("round %d: %d runs, want 1 with the written bytes", round, len(runs))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("round %d: archive holds %d files, want the run and its manifest", round, len(entries))
		}
	}
}

func TestWriteArchiveRejectsPathKeys(t *testing.T) {
	for _, key := range []string{"", "../escape", "a/b"} {
		if err := WriteArchive(t.TempDir(), key, fixtureReq(1), nil); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

func TestLoadArchiveRejectsInconsistency(t *testing.T) {
	cases := []struct {
		name string
		prep func(t *testing.T, dir string)
		want string
	}{
		{"key mismatch", func(t *testing.T, dir string) {
			writeFile(t, dir, "zzz.json", `{"key":"other","request":{"seed":1}}`)
		}, `names key "other"`},
		{"missing jsonl", func(t *testing.T, dir string) {
			writeFile(t, dir, "zzz.json", `{"key":"zzz","request":{"seed":1}}`)
		}, "archived run zzz"},
		{"unknown manifest field", func(t *testing.T, dir string) {
			writeFile(t, dir, "zzz.json", `{"key":"zzz","request":{"seed":1},"extra":true}`)
		}, "manifest zzz.json"},
		{"bad jsonl", func(t *testing.T, dir string) {
			writeFile(t, dir, "zzz.json", `{"key":"zzz","request":{"seed":1}}`)
			writeFile(t, dir, "zzz.jsonl", "{not json}\n")
		}, "archived run zzz"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.prep(t, dir)
			_, err := LoadArchive(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestScanArchiveSkipsBadEntries pins the lenient reader behind server
// priming: the readable runs come back in key order, and each bad entry
// is reported once, in key order, instead of failing the whole read.
func TestScanArchiveSkipsBadEntries(t *testing.T) {
	dir := writeFixtureArchive(t)
	writeFile(t, dir, "aaa0.json", `{"key":"other","request":{"seed":1}}`)
	writeFile(t, dir, "aaa3.json", `{"key":"aaa3","request":{"seed":1}}`)
	writeFile(t, dir, "aaa3.jsonl", `{"experiment":"figx","sec`)

	runs, bad, err := ScanArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := runKeys(runs); got != "aaa1,aaa2,bbb1" {
		t.Fatalf("runs %s, want aaa1,aaa2,bbb1", got)
	}
	if len(bad) != 2 || !strings.Contains(bad[0].Error(), "aaa0.json") || !strings.Contains(bad[1].Error(), "aaa3") {
		t.Fatalf("bad entries %v, want aaa0.json then aaa3", bad)
	}
	if _, err := LoadArchive(dir); err == nil || err.Error() != bad[0].Error() {
		t.Fatalf("LoadArchive err = %v, want the first bad entry %v", err, bad[0])
	}
	if _, _, err := ScanArchive(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("ScanArchive of a missing directory succeeded")
	}
}

// TestScanArchiveRejectsTrailingData pins the strict archive decoders:
// a row line or a manifest followed by anything but whitespace is a bad
// entry, never a run a primed server would serve as a hit.
func TestScanArchiveRejectsTrailingData(t *testing.T) {
	dir := writeFixtureArchive(t)
	row := fixtureJSONL("91.9%", 100)
	if err := WriteArchive(dir, "aaa3", fixtureReq(3), bytes.Replace(row, []byte("}\n"), []byte("} trailing-garbage\n"), 1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(dir, "aaa4", fixtureReq(4), row); err != nil {
		t.Fatal(err)
	}
	appendFile(t, filepath.Join(dir, "aaa4.json"), ` {"junk":1}`+"\n")
	if err := WriteArchive(dir, "aaa5", fixtureReq(5), row); err != nil {
		t.Fatal(err)
	}
	appendFile(t, filepath.Join(dir, "aaa5.json"), " \n\t\n") // whitespace is not data

	runs, bad, err := ScanArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := runKeys(runs); got != "aaa1,aaa2,aaa5,bbb1" {
		t.Fatalf("runs %s, want aaa1,aaa2,aaa5,bbb1", got)
	}
	if len(bad) != 2 || !strings.Contains(bad[0].Error(), "archived run aaa3: jsonl line 1: trailing data") ||
		!strings.Contains(bad[1].Error(), "manifest aaa4.json: trailing data") {
		t.Fatalf("bad entries %v, want aaa3's row line then aaa4's manifest", bad)
	}
}

// TestArchiveContentHash pins the manifest's content sha256: WriteArchive
// records it, an entry whose stream no longer matches it is skipped by
// ScanArchive and fails LoadArchive, and a manifest without the field
// (written before it existed) still loads.
func TestArchiveContentHash(t *testing.T) {
	dir := writeFixtureArchive(t)
	mb, err := os.ReadFile(filepath.Join(dir, "aaa1.json"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fixtureJSONL("91.9%", 100, 98, 96))
	if want := `"sha256": "` + hex.EncodeToString(sum[:]) + `"`; !strings.Contains(string(mb), want) {
		t.Fatalf("manifest does not record %s:\n%s", want, mb)
	}

	// aaa2's stream is replaced by other bytes that still parse.
	writeFile(t, dir, "aaa2.jsonl", string(fixtureJSONL("99.9%", 100, 97, 95)))
	// bbb1's manifest loses the field, as one written before it existed.
	mb, err = os.ReadFile(filepath.Join(dir, "bbb1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]any
	if err := json.Unmarshal(mb, &legacy); err != nil {
		t.Fatal(err)
	}
	delete(legacy, "sha256")
	lb, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "bbb1.json", string(lb))

	runs, bad, err := ScanArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := runKeys(runs); got != "aaa1,bbb1" {
		t.Fatalf("runs %s, want aaa1,bbb1", got)
	}
	if len(bad) != 1 || !strings.Contains(bad[0].Error(), "archived run aaa2: content sha256") {
		t.Fatalf("bad entries %v, want aaa2's hash mismatch", bad)
	}
	if _, err := LoadArchive(dir); err == nil || err.Error() != bad[0].Error() {
		t.Fatalf("LoadArchive err = %v, want %v", err, bad[0])
	}
}

// TestScanArchiveMatchesSerialRead checks the concurrent read against
// an entry-by-entry one over an archive with every kind of bad entry
// mixed in: the same runs and the same errors, in the same order. CI
// runs it under the race detector.
func TestScanArchiveMatchesSerialRead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%02d", i)
		jsonl := fixtureJSONL(fmt.Sprintf("%d%%", i), 100, float64(i))
		if err := WriteArchive(dir, key, fixtureReq(int64(i)), jsonl); err != nil {
			t.Fatal(err)
		}
		switch i % 8 {
		case 1: // truncated stream
			writeFile(t, dir, key+".jsonl", string(jsonl[:30]))
		case 3: // missing stream
			if err := os.Remove(filepath.Join(dir, key+".jsonl")); err != nil {
				t.Fatal(err)
			}
		case 5: // manifest naming another key
			writeFile(t, dir, key+".json", `{"key":"other","request":{"seed":1}}`)
		case 6: // stream that parses but is not the recorded one
			writeFile(t, dir, key+".jsonl", string(fixtureJSONL("0%", 1)))
		}
	}

	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var wantRuns []Run
	var wantBad []string
	for _, name := range names {
		run, err := readEntry(dir, filepath.Base(name))
		if err != nil {
			wantBad = append(wantBad, err.Error())
			continue
		}
		wantRuns = append(wantRuns, run)
	}
	if len(wantRuns) != 20 || len(wantBad) != 20 {
		t.Fatalf("serial read: %d runs, %d bad; want 20 of each", len(wantRuns), len(wantBad))
	}

	for round := 0; round < 5; round++ {
		runs, bad, err := ScanArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, wantRuns) {
			t.Fatalf("round %d: runs %s, want %s", round, runKeys(runs), runKeys(wantRuns))
		}
		got := make([]string, len(bad))
		for i, e := range bad {
			got[i] = e.Error()
		}
		if !slices.Equal(got, wantBad) {
			t.Fatalf("round %d: bad entries\n%s\nwant\n%s", round, strings.Join(got, "\n"), strings.Join(wantBad, "\n"))
		}
	}
}

func runKeys(runs []Run) string {
	keys := make([]string, len(runs))
	for i, r := range runs {
		keys[i] = r.Key
	}
	return strings.Join(keys, ",")
}

func appendFile(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestParseExpectationsValidation(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"ruless":[]}`, "unknown field"},
		{"trailing data", `{"rules":[{"column":"c","max":1}]} x`, "trailing data"},
		{"second value", `{"rules":[]}{"rules":[]}`, "trailing data"},
		{"missing column", `{"rules":[{"max":1}]}`, "column is required"},
		{"no bound", `{"rules":[{"column":"c"}]}`, "at least one"},
		{"min above max", `{"rules":[{"column":"c","min":2,"max":1}]}`, "min 2 > max 1"},
		{"negative rel", `{"rules":[{"column":"c","maxRelDelta":-0.1}]}`, "negative"},
		{"negative slope", `{"rules":[{"column":"c","maxDriftSlope":-1}]}`, "negative"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseExpectations([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	exp, err := ParseExpectations([]byte(`{"rules":[{"column":"cloud","max":95,"experiment":"figx"}]}`))
	if err != nil || len(exp.Rules) != 1 {
		t.Fatalf("valid doc rejected: %v", err)
	}
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		v    float64
		unit string
		ok   bool
	}{
		{"42", 42, "", true},
		{"0.5", 0.5, "", true},
		{"91.9%", 91.9, "%", true},
		{"1.38e+09", 1.38e9, "", true},
		{"G-IP", 0, "", false},
		{"", 0, "", false},
	}
	for _, tc := range cases {
		v, unit, ok := parseNumeric(tc.in)
		if v != tc.v || unit != tc.unit || ok != tc.ok {
			t.Fatalf("parseNumeric(%q) = %v %q %v", tc.in, v, unit, ok)
		}
	}
}

// TestAnalyzeGroupsDeltasDrifts pins the analytical core: grouping by
// shape, seed-ordered runs, consecutive-pair deltas and least-squares
// epoch slopes.
func TestAnalyzeGroupsDeltasDrifts(t *testing.T) {
	runs, err := LoadArchive(writeFixtureArchive(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(runs, Expectations{})
	if len(rep.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(rep.Groups))
	}
	// Two-run group: one delta pair over the numeric cells. The "label"
	// column is non-numeric and must not appear; neither must the
	// methodology label column itself.
	var g *Group
	for i := range rep.Groups {
		if len(rep.Groups[i].Runs) == 2 {
			g = &rep.Groups[i]
		}
	}
	if g == nil {
		t.Fatal("two-run group missing")
	}
	if g.Runs[0].Seed != 1 || g.Runs[1].Seed != 2 {
		t.Fatalf("runs out of seed order: %+v", g.Runs)
	}
	// figx: cloud for A-N and G-IP; population: online per epoch row
	// (3 shared epochs) → 2 + 3 deltas.
	if len(g.Deltas) != 5 {
		t.Fatalf("%d deltas, want 5: %+v", len(g.Deltas), g.Deltas)
	}
	d := g.Deltas[0]
	if d.Experiment != "figx" || d.Row != "A-N" || d.Column != "cloud" {
		t.Fatalf("first delta misplaced: %+v", d)
	}
	if d.From != "91.9" || d.To != "92.1" || d.Unit != "%" {
		t.Fatalf("delta values: %+v", d)
	}
	from, to := 91.9, 92.1
	if d.Delta != canon(to-from) || d.Rel == "" {
		t.Fatalf("delta rendering: %+v", d)
	}

	// Drift: population declines 100,98,96 → slope -2 (seed 1) and
	// 100,97,95 → -2.5 (seed 2).
	if len(g.Drifts) != 2 {
		t.Fatalf("%d drifts, want 2: %+v", len(g.Drifts), g.Drifts)
	}
	if g.Drifts[0].Slope != "-2" || g.Drifts[1].Slope != "-2.5" {
		t.Fatalf("slopes: %+v", g.Drifts)
	}
	if g.Drifts[0].Points != 3 || g.Drifts[0].Column != "online" {
		t.Fatalf("drift shape: %+v", g.Drifts[0])
	}
}

// TestAnalyzeDeterminism pins the acceptance criterion: identical
// archive sets produce byte-identical JSON and summary output, however
// many times the analyzer runs.
func TestAnalyzeDeterminism(t *testing.T) {
	dir := writeFixtureArchive(t)
	exp, err := ParseExpectations([]byte(`{"rules":[
		{"experiment":"figx","column":"cloud","min":1,"max":95,"maxRelDelta":0.05},
		{"column":"online","maxDriftSlope":10}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, string) {
		runs, err := LoadArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep := Analyze(runs, exp)
		var j, s bytes.Buffer
		if err := RenderJSON(&j, rep); err != nil {
			t.Fatal(err)
		}
		if err := RenderSummary(&s, rep); err != nil {
			t.Fatal(err)
		}
		return j.String(), s.String()
	}
	j1, s1 := render()
	for i := 0; i < 3; i++ {
		j2, s2 := render()
		if j1 != j2 {
			t.Fatalf("JSON output drifted between runs:\n%s\n---\n%s", j1, j2)
		}
		if s1 != s2 {
			t.Fatalf("summary output drifted between runs:\n%s\n---\n%s", s1, s2)
		}
	}
	if !strings.Contains(j1, `"alerts": []`) {
		t.Fatalf("fixture unexpectedly alerts:\n%s", j1)
	}
	if !strings.Contains(s1, "0 alerts") {
		t.Fatalf("summary: %s", s1)
	}
}

// TestAnalyzeInjectedRegression pins the other acceptance criterion: a
// doctored archive produces exactly the expected alert rows.
func TestAnalyzeInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(WriteArchive(dir, "aaa1", fixtureReq(1), fixtureJSONL("91.9%", 100, 98, 96)))
	// Seed 2 regresses: share jumps past the 5% relative threshold and
	// above the absolute bound; population collapses with slope -40.
	must(WriteArchive(dir, "aaa2", fixtureReq(2), fixtureJSONL("99%", 100, 60, 20)))
	exp, err := ParseExpectations([]byte(`{"rules":[
		{"experiment":"figx","column":"cloud","row":"A-N","max":95,"maxRelDelta":0.05},
		{"column":"online","maxDriftSlope":10}
	]}`))
	must(err)
	runs, err := LoadArchive(dir)
	must(err)
	rep := Analyze(runs, exp)

	if len(rep.Alerts) != 3 {
		t.Fatalf("%d alerts, want 3: %+v", len(rep.Alerts), rep.Alerts)
	}
	// Fixed order: bounds over runs first, then deltas, then drifts.
	bound, delta, drift := rep.Alerts[0], rep.Alerts[1], rep.Alerts[2]
	if bound.Kind != "bound" || bound.Rule != 0 || bound.Value != "99" || bound.Limit != "95" || bound.Seed != 2 {
		t.Fatalf("bound alert: %+v", bound)
	}
	if delta.Kind != "delta" || delta.Rule != 0 || delta.Row != "A-N" || delta.PrevKey != "aaa1" || delta.Key != "aaa2" {
		t.Fatalf("delta alert: %+v", delta)
	}
	base, moved := 91.9, 99.0
	if delta.Value != canon((moved-base)/base) {
		t.Fatalf("delta alert value %q", delta.Value)
	}
	if drift.Kind != "drift" || drift.Rule != 1 || drift.Column != "online" || drift.Value != "-40" || drift.Seed != 2 {
		t.Fatalf("drift alert: %+v", drift)
	}

	// The summary surfaces every alert.
	var s bytes.Buffer
	if err := RenderSummary(&s, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "3 alerts") || !strings.Contains(s.String(), "past threshold") {
		t.Fatalf("summary missing alerts:\n%s", s.String())
	}
}

// TestAnalyzeZeroBaselineDelta pins the zero-to-nonzero convention: an
// infinite relative change trips any maxRelDelta rule, and an exact
// repeat never does.
func TestAnalyzeZeroBaselineDelta(t *testing.T) {
	dir := t.TempDir()
	line := func(v string) []byte {
		return []byte(`{"experiment":"figx","section":"§9","table":{"title":"t","columns":["k","n"],"rows":[["total","` + v + `"]]}}` + "\n")
	}
	if err := WriteArchive(dir, "aaa1", fixtureReq(1), line("0")); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(dir, "aaa2", fixtureReq(2), line("3")); err != nil {
		t.Fatal(err)
	}
	exp, _ := ParseExpectations([]byte(`{"rules":[{"column":"n","maxRelDelta":1000}]}`))
	runs, err := LoadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(runs, exp)
	if len(rep.Alerts) != 1 || rep.Alerts[0].Value != "+Inf" {
		t.Fatalf("alerts: %+v", rep.Alerts)
	}

	// Identical values: delta 0, rel absent from JSON, no alert.
	if err := WriteArchive(dir, "aaa2", fixtureReq(2), line("0")); err != nil {
		t.Fatal(err)
	}
	runs, err = LoadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep = Analyze(runs, exp)
	if len(rep.Alerts) != 0 {
		t.Fatalf("exact repeat alerted: %+v", rep.Alerts)
	}
	if d := rep.Groups[0].Deltas[0]; d.Rel != "" || d.Delta != "0" {
		t.Fatalf("zero-baseline delta: %+v", d)
	}
}
