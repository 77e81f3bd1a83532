package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsb/internal/analyze"
	"tcsb/internal/core"
	"tcsb/internal/experiments"
	"tcsb/internal/runcache"
)

// testServer is a small fleet over a tiny worker budget — enough to
// exercise slot contention without slowing the suite down.
func testServer() *server {
	return newServer(2, 4, 64, "", nil)
}

// tinyRun is the smallest campaign that exercises the full pipeline:
// a fraction of the default population observed for one day.
func tinyRun() core.RunRequest {
	return core.RunRequest{Seed: 3, Scale: 0.05, Days: 1, Only: []string{"table1"}}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestReadEndpoints(t *testing.T) {
	h := testServer().handler()

	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}

	var catalog []experiments.Describe
	w := get(t, h, "/v1/experiments")
	if w.Code != http.StatusOK {
		t.Fatalf("experiments: %d %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &catalog); err != nil {
		t.Fatal(err)
	}
	if len(catalog) == 0 {
		t.Fatal("empty experiment catalog")
	}

	// Every catalog entry must be fetchable by name.
	if w := get(t, h, "/v1/experiments/"+catalog[0].Name); w.Code != http.StatusOK {
		t.Fatalf("experiments/%s: %d %s", catalog[0].Name, w.Code, w.Body)
	}
	if w := get(t, h, "/v1/experiments/no-such-figure"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown experiment: %d, want 404", w.Code)
	}

	var presets map[string][]map[string]any
	w = get(t, h, "/v1/presets")
	if err := json.Unmarshal(w.Body.Bytes(), &presets); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"scale", "net", "timeline"} {
		if len(presets[family]) == 0 {
			t.Errorf("preset family %q is empty", family)
		}
	}

	if w := get(t, h, "/v1/interventions"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "hydra-dissolution") {
		t.Fatalf("interventions: %d %s", w.Code, w.Body)
	}
	if w := get(t, h, "/v1/cache"); w.Code != http.StatusOK {
		t.Fatalf("cache: %d %s", w.Code, w.Body)
	}
}

// TestRunRequestValidation pins the 4xx surface: malformed bodies,
// unknown fields and every Resolve rejection are client errors — the
// server never panics and never runs a campaign for invalid input.
func TestRunRequestValidation(t *testing.T) {
	h := testServer().handler()
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"seed":`},
		{"unknown field", `{"seed":1,"sclae":0.1}`},
		{"negative days", `{"days":-1}`},
		{"negative workers", `{"workers":-1}`},
		{"days in timeline mode", `{"days":2,"timeline":"epochs=2"}`},
		{"whatIf and timeline", `{"whatIf":"hydra-dissolution","timeline":"epochs=2"}`},
		{"unknown experiment", `{"only":["fig999"]}`},
		{"unknown intervention", `{"whatIf":"bogus"}`},
		{"bad net profile", `{"netProfile":"net.nope"}`},
		{"bad timeline grammar", `{"timeline":"epochs=zero"}`},
		{"second JSON value", `{"seed":1}{"seed":2}`},
		{"trailing garbage", `{"seed":1} x`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", w.Code, w.Body)
			}
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", w.Body)
			}
		})
	}

	if w := get(t, testServer().handler(), "/v1/runs"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/runs: %d, want 405", w.Code)
	}
}

// TestRequestBodyLimits pins the body cap on every POST endpoint: a
// body one byte past maxBodyBytes is a 413 JSON error, one exactly at
// the cap is read in full and judged on its content, and a sweep spec
// or an expectations document with trailing data is a 400 like a run
// request.
func TestRequestBodyLimits(t *testing.T) {
	h := newServer(2, 4, 64, t.TempDir(), nil).handler()
	pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"run at the cap", "/v1/runs", pad(`{"days":-1}`, maxBodyBytes), http.StatusBadRequest},
		{"run past the cap", "/v1/runs", pad(`{"days":-1}`, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"sweep past the cap", "/v1/sweeps", pad(`{"seeds":[1]}`, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"analyze past the cap", "/v1/analyze", pad(`{"rules":[]}`, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"sweep with a second value", "/v1/sweeps", `{"seeds":[1]}{"seeds":[2]}`, http.StatusBadRequest},
		{"analyze with a second value", "/v1/analyze", `{"rules":[]}{"rules":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.want, w.Body)
			}
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", w.Body)
			}
		})
	}
}

// TestCacheHitByteIdentity is the acceptance pin for the run cache:
// in all three execution modes, the second POST of a request is a cache
// hit whose body is byte-identical to the fresh run AND to a direct
// engine execution of the same resolved request.
func TestCacheHitByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	modes := []struct {
		name string
		req  core.RunRequest
	}{
		{"run", tinyRun()},
		{"what-if", core.RunRequest{Seed: 3, Scale: 0.05, Days: 1, WhatIf: "hydra-dissolution", Only: []string{"whatif.fig3"}}},
		{"timeline", core.RunRequest{Seed: 3, Scale: 0.05, Timeline: "epochs=2;days=1", Only: []string{"timeline.population"}}},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			s := testServer()
			h := s.handler()

			first := postJSON(t, h, "/v1/runs", m.req)
			if first.Code != http.StatusOK {
				t.Fatalf("first POST: %d %s", first.Code, first.Body)
			}
			if got := first.Header().Get("X-Tcsb-Cache"); got != "miss" {
				t.Fatalf("first POST X-Tcsb-Cache = %q, want miss", got)
			}
			second := postJSON(t, h, "/v1/runs", m.req)
			if second.Code != http.StatusOK {
				t.Fatalf("second POST: %d %s", second.Code, second.Body)
			}
			if got := second.Header().Get("X-Tcsb-Cache"); got != "hit" {
				t.Fatalf("second POST X-Tcsb-Cache = %q, want hit", got)
			}
			if k1, k2 := first.Header().Get("X-Tcsb-Run-Key"), second.Header().Get("X-Tcsb-Run-Key"); k1 == "" || k1 != k2 {
				t.Fatalf("run keys %q vs %q", k1, k2)
			}
			if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
				t.Fatal("cache hit is not byte-identical to the fresh run")
			}

			// And both equal a direct engine execution, bypassing the
			// server entirely — the cache serves real output, not a copy
			// that could drift.
			res, err := experiments.Resolve(m.req)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := res.ExecuteJSONL(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Body.Bytes(), direct) {
				t.Fatal("served bytes differ from a direct engine run")
			}
		})
	}
}

// TestRunResponseContentLength pins the framing of a run response on a
// real connection: the stored body goes out whole, with a
// Content-Length and no chunked encoding, even past net/http's 2 KiB
// threshold for chunking a response of unknown length.
func TestRunResponseContentLength(t *testing.T) {
	s := testServer()
	res, err := experiments.Resolve(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	line := `{"experiment":"table1","section":"§2","table":{"title":"t","columns":["k","v"],"rows":[["total","5"]]}}` + "\n"
	body := []byte(strings.Repeat(line, 64))
	s.cache.Prime(res.Key, body)
	srv := httptest.NewServer(s.handler())
	defer srv.Close()

	reqBody, err := json.Marshal(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Tcsb-Cache") != "hit" {
		t.Fatalf("status %d, cache %q; want a 200 hit", resp.StatusCode, resp.Header.Get("X-Tcsb-Cache"))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if !bytes.Equal(got, body) {
		t.Fatal("served bytes differ from the cached body")
	}
}

// TestSweepValidation pins the all-before-any contract: one bad grid
// cell fails the whole sweep with a 400 naming the cell, before any
// simulation runs.
func TestSweepValidation(t *testing.T) {
	s := testServer()
	h := s.handler()

	w := postJSON(t, h, "/v1/sweeps", map[string]any{
		"seeds":       []int64{1, 2},
		"scales":      []float64{0.05},
		"netProfiles": []string{"net.ideal", "net.nope"},
		"days":        1,
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad cell: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "net.nope") {
		t.Fatalf("error does not name the bad cell: %s", w.Body)
	}
	if st := s.cache.Stats(); st.Misses != 0 {
		t.Fatalf("sweep ran %d campaigns before validation finished", st.Misses)
	}

	// The grid bound is enforced before resolution.
	seeds := make([]int64, maxSweepRuns+1)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	w = postJSON(t, h, "/v1/sweeps", map[string]any{"seeds": seeds, "days": 1})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "cap") {
		t.Fatalf("oversized sweep: %d %s", w.Code, w.Body)
	}
}

// TestOversizeSweepRefusedBeforeExpansion pins what the grid cap costs:
// 2,000 seeds × 2,000 scales is a 19 KB body describing four million
// cells, and it is refused from its axis lengths without building any
// of them.
func TestOversizeSweepRefusedBeforeExpansion(t *testing.T) {
	h := testServer().handler()
	seeds := make([]int64, 2000)
	scales := make([]float64, 2000)
	for i := range seeds {
		seeds[i] = int64(i)
		scales[i] = 0.05
	}
	body, err := json.Marshal(map[string]any{"seeds": seeds, "scales": scales, "days": 1})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "cap") {
		t.Fatalf("oversized sweep: %d %s", w.Code, w.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("refusing a %d-byte sweep allocated %.1f MB", len(body), float64(alloc)/(1<<20))
	}
}

// TestSweepExecutesAndCoalesces runs a small grid twice: the first pass
// computes every distinct cell once (duplicate cells coalesce onto one
// campaign), the second is fully cache-served with identical bytes.
func TestSweepExecutesAndCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	s := testServer()
	h := s.handler()
	spec := map[string]any{
		"seeds":  []int64{3, 4},
		"scales": []float64{0.05},
		"days":   1,
		"only":   []string{"table1"},
	}

	cold := postJSON(t, h, "/v1/sweeps", spec)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", cold.Code, cold.Body)
	}
	var rows []sweepResult
	dec := json.NewDecoder(bytes.NewReader(cold.Body.Bytes()))
	for dec.More() {
		var r sweepResult
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Index != i || r.Key == "" || len(r.Results) == 0 {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
	}
	if rows[0].Key == rows[1].Key {
		t.Fatal("different seeds share a key")
	}

	warm := postJSON(t, h, "/v1/sweeps", spec)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm sweep: %d %s", warm.Code, warm.Body)
	}
	var warmRows []sweepResult
	dec = json.NewDecoder(bytes.NewReader(warm.Body.Bytes()))
	for dec.More() {
		var r sweepResult
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		warmRows = append(warmRows, r)
	}
	for i := range rows {
		if !warmRows[i].Cached {
			t.Errorf("warm row %d not cache-served", i)
		}
		a, _ := json.Marshal(rows[i].Results)
		b, _ := json.Marshal(warmRows[i].Results)
		if !bytes.Equal(a, b) {
			t.Errorf("warm row %d differs from cold row", i)
		}
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Fatalf("cache computed %d campaigns for 2 distinct cells run twice", st.Misses)
	}
}

// TestConcurrentRunsCoalesce hammers one key from many goroutines
// through the full HTTP stack; the fleet must run exactly one campaign
// and every response must be byte-identical. Run under -race in CI.
func TestConcurrentRunsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	s := testServer()
	h := s.handler()
	req := tinyRun()

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(b))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.Bytes()
			} else {
				t.Errorf("client %d: %d %s", i, w.Code, w.Body)
			}
		}(i)
	}
	wg.Wait()

	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("%d campaigns ran for one key under concurrency", st.Misses)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
}

// TestRecoverMiddleware proves a handler panic surfaces as a 500 JSON
// error, not a dead process.
func TestRecoverMiddleware(t *testing.T) {
	s := testServer()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.recoverPanics(mux)

	w := get(t, h, "/boom")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "kaboom") {
		t.Fatalf("body %q", w.Body)
	}
}

// TestWorkerClampNeverChangesBytes pins the fleet scheduler's safety
// property end to end: the same request at different worker allotments
// resolves one key and one byte stream.
func TestWorkerClampNeverChangesBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	wide := newServer(1, 8, 16, "", nil)
	narrow := newServer(4, 1, 16, "", nil)

	req := tinyRun()
	a := postJSON(t, wide.handler(), "/v1/runs", req)
	b := postJSON(t, narrow.handler(), "/v1/runs", req)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if a.Header().Get("X-Tcsb-Run-Key") != b.Header().Get("X-Tcsb-Run-Key") {
		t.Fatal("worker allotment leaked into the cache key")
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("worker allotment changed the output bytes")
	}
}

// waitStats polls the cache counters until ok returns true — the
// deterministic way to sequence concurrent requests in these tests
// without sleeping on real-time guesses.
func waitStats(t *testing.T, s *server, what string, ok func(runcache.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(s.cache.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %s)", what, s.cache.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledClientDoesNotPoisonCoalesced is the regression pin for
// the coalescing bug: the flight owner's HTTP request is cancelled
// while the flight waits for a fleet slot, and a coalesced follower of
// the same key must still get a 200 with the full body — the flight
// belongs to the server, not to the requester that happened to start
// it.
func TestCancelledClientDoesNotPoisonCoalesced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	s := newServer(1, 2, 16, "", nil)
	h := s.handler()
	// Hold the only fleet slot: the flight parks at slot acquisition.
	s.slots <- struct{}{}

	body, err := json.Marshal(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstRec := httptest.NewRecorder()
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		h.ServeHTTP(firstRec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)).WithContext(ctx))
	}()
	waitStats(t, s, "the flight to register", func(st runcache.Stats) bool { return st.Misses == 1 })

	secondRec := httptest.NewRecorder()
	secondDone := make(chan struct{})
	go func() {
		defer close(secondDone)
		h.ServeHTTP(secondRec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	}()
	waitStats(t, s, "the follower to coalesce", func(st runcache.Stats) bool { return st.Coalesced >= 1 })

	// Cancel the owner. Its request errors out; the flight must not.
	cancel()
	<-firstDone
	if firstRec.Code != http.StatusInternalServerError {
		t.Fatalf("cancelled owner got %d, want 500", firstRec.Code)
	}
	select {
	case <-secondDone:
		t.Fatal("follower returned while the flight was still parked")
	default:
	}

	// Release the slot: the detached flight computes and the follower is
	// served the full body.
	<-s.slots
	<-secondDone
	if secondRec.Code != http.StatusOK || secondRec.Body.Len() == 0 {
		t.Fatalf("follower got %d (%d bytes), want 200 with a full body", secondRec.Code, secondRec.Body.Len())
	}

	// The computed bytes landed in the cache: a third request is a hit
	// with identical bytes, and no recompute ever happened.
	third := postJSON(t, h, "/v1/runs", tinyRun())
	if third.Header().Get("X-Tcsb-Cache") != "hit" || !bytes.Equal(third.Body.Bytes(), secondRec.Body.Bytes()) {
		t.Fatal("flight result did not land in the cache intact")
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Fatalf("%d campaigns ran; the cancelled owner must not force a recompute", st.Misses)
	}
}

// streamRecorder is a ResponseWriter that surfaces each NDJSON line as
// the handler flushes it, so a test can observe streaming order while
// the handler is still running. A written line stays buffered until the
// next Flush, as in a real response, so a line arriving on lines proves
// the handler flushed it. Write and Flush run on the handler goroutine;
// the test reads only lines.
type streamRecorder struct {
	header  http.Header
	pending bytes.Buffer
	lines   chan string
}

func newStreamRecorder() *streamRecorder {
	// Buffered past any test's line count, so Flush never blocks.
	return &streamRecorder{header: http.Header{}, lines: make(chan string, 64)}
}

func (r *streamRecorder) Header() http.Header         { return r.header }
func (r *streamRecorder) WriteHeader(int)             {}
func (r *streamRecorder) Write(p []byte) (int, error) { return r.pending.Write(p) }

// Flush publishes every complete buffered line.
func (r *streamRecorder) Flush() {
	for {
		i := bytes.IndexByte(r.pending.Bytes(), '\n')
		if i < 0 {
			return
		}
		r.lines <- string(r.pending.Next(i + 1)[:i])
	}
}

// TestSweepStreamsRows is the regression pin for the buffering bug:
// row i must be written and flushed as soon as cell i completes, never
// held until the whole grid finishes (the recorder publishes a row only
// on Flush). Cell 0 is primed (instant hit) and cell 1 is blocked on
// the only fleet slot — so row 0 arriving while the slot is still held
// proves the handler streams.
func TestSweepStreamsRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	s := newServer(1, 2, 16, "", nil)
	h := s.handler()

	res0, err := experiments.Resolve(core.RunRequest{Seed: 3, Scale: 0.05, Days: 1, Only: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	fake := []byte(`{"experiment":"table1","section":"§2","table":{"title":"t","columns":["k","v"],"rows":[["total","5"]]}}` + "\n")
	s.cache.Prime(res0.Key, fake)
	s.slots <- struct{}{} // cell 1 parks here

	rec := newStreamRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps",
			strings.NewReader(`{"seeds":[3,4],"scales":[0.05],"days":1,"only":["table1"]}`)))
	}()

	select {
	case line := <-rec.lines:
		var row sweepResult
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("first streamed line: %v\n%s", err, line)
		}
		if row.Index != 0 || !row.Cached {
			t.Fatalf("first streamed row: %+v, want cached cell 0", row)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("row 0 was not written and flushed while cell 1 was still computing")
	}

	<-s.slots // release: cell 1 runs
	<-done
	select {
	case line := <-rec.lines:
		var row sweepResult
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("second streamed line: %v\n%s", err, line)
		}
		if row.Index != 1 || row.Cached || len(row.Results) == 0 {
			t.Fatalf("second streamed row: %+v, want computed cell 1", row)
		}
	default:
		t.Fatal("row 1 missing after the sweep finished")
	}
}

// TestSweepExpandDedupesBaseline pins the mode-axis dedupe: an
// explicit "" in whatIf and in timelines is the same baseline cell,
// and repeated entries never burn extra grid slots.
func TestSweepExpandDedupesBaseline(t *testing.T) {
	cases := []struct {
		name string
		spec sweepSpec
		want int
	}{
		{"both empty baselines", sweepSpec{Seeds: []int64{1}, WhatIf: []string{""}, Timelines: []string{""}}, 1},
		{"duplicate whatIf entries", sweepSpec{Seeds: []int64{1}, WhatIf: []string{"a", "a"}}, 1},
		{"baseline plus named", sweepSpec{Seeds: []int64{1}, WhatIf: []string{"", "a"}, Timelines: []string{""}}, 2},
		{"distinct modes survive", sweepSpec{Seeds: []int64{1}, WhatIf: []string{"a"}, Timelines: []string{"epochs=2"}}, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.expand()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.want {
				t.Fatalf("%d cells, want %d: %+v", len(got), tc.want, got)
			}
			for _, req := range got {
				if req.WhatIf != "" && req.Timeline != "" {
					t.Fatalf("cell mixes modes: %+v", req)
				}
			}
		})
	}
	cells, err := sweepSpec{Seeds: []int64{1}, WhatIf: []string{""}, Timelines: []string{""}}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if one := cells[0]; one.WhatIf != "" || one.Timeline != "" {
		t.Fatalf("merged baseline cell is not plain: %+v", one)
	}
}

// TestSweepEchoesCanonicalRequest pins the response contract: the
// echoed request is the canonical client request — it must not grow
// workers/parallel values the server chose for its own scheduling.
func TestSweepEchoesCanonicalRequest(t *testing.T) {
	s := testServer()
	h := s.handler()
	res, err := experiments.Resolve(core.RunRequest{Seed: 3, Scale: 0.05, Days: 1, Only: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	fake := []byte(`{"experiment":"table1","section":"§2","table":{"title":"t","columns":["k","v"],"rows":[["total","5"]]}}` + "\n")
	s.cache.Prime(res.Key, fake)

	w := postJSON(t, h, "/v1/sweeps", map[string]any{
		"seeds": []int64{3}, "scales": []float64{0.05}, "days": 1, "only": []string{"table1"},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body)
	}
	var row struct {
		Request map[string]any `json:"request"`
		Cached  bool           `json:"cached"`
	}
	line, _, _ := strings.Cut(w.Body.String(), "\n")
	if err := json.Unmarshal([]byte(line), &row); err != nil {
		t.Fatal(err)
	}
	if !row.Cached {
		t.Fatalf("primed cell not cache-served: %s", line)
	}
	for _, k := range []string{"parallel", "workers"} {
		if v, ok := row.Request[k]; ok {
			t.Errorf("echoed request grew %q=%v the client never sent", k, v)
		}
	}
}

// TestServerArchivePrimingAndAnalyze covers the archive lifecycle
// without running a campaign: a prior run persisted to the archive is
// primed at boot (served as a hit, misses stay 0), a stale manifest
// whose request no longer resolves to its key is skipped, corrupt
// entries are skipped without failing the boot while /v1/analyze stays
// strict about them, and /v1/analyze reports over the same archive.
func TestServerArchivePrimingAndAnalyze(t *testing.T) {
	dir := t.TempDir()
	res, err := experiments.Resolve(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	fake := []byte(`{"experiment":"table1","section":"§2","table":{"title":"t","columns":["k","v"],"rows":[["total","5"]]}}` + "\n")
	if err := analyze.WriteArchive(dir, res.Key, res.Req, fake); err != nil {
		t.Fatal(err)
	}
	// A manifest whose key no longer matches its re-resolved request
	// (an archive from an older engine) must be skipped, never primed.
	stale := tinyRun()
	stale.Days = 2
	if err := analyze.WriteArchive(dir, "deadbeef", stale, fake); err != nil {
		t.Fatal(err)
	}
	// Two corrupt entries: a run whose JSONL stream was cut mid-line, and
	// a manifest whose key disagrees with its file name.
	truncReq := tinyRun()
	truncReq.Seed = 4
	trunc, err := experiments.Resolve(truncReq)
	if err != nil {
		t.Fatal(err)
	}
	if err := analyze.WriteArchive(dir, trunc.Key, trunc.Req, fake[:40]); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, res.Key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	misnamed := filepath.Join(dir, "cafef00d.json")
	if err := os.WriteFile(misnamed, manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	s := newServer(2, 4, 64, dir, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	primed, skipped, err := s.primeFromArchive()
	if err != nil {
		t.Fatalf("a corrupt entry failed the boot: %v", err)
	}
	if primed != 1 || skipped != 3 {
		t.Fatalf("primed %d, skipped %d; want 1 primed, 3 skipped (stale, truncated, misnamed)", primed, skipped)
	}
	for _, want := range []string{trunc.Key, "cafef00d.json", "deadbeef"} {
		if !strings.Contains(strings.Join(logs, "\n"), want) {
			t.Errorf("no log line names skipped entry %s; logs:\n%s", want, strings.Join(logs, "\n"))
		}
	}
	// The summary closes the prime: counts, duration and the bytes of
	// the two readable streams (the primed run and the stale one).
	summary := fmt.Sprintf(`^primed 1 runs from archive %s \(3 skipped\) in [0-9.]+[µm]?s, %d run bytes read$`,
		regexp.QuoteMeta(dir), 2*len(fake))
	if last := logs[len(logs)-1]; !regexp.MustCompile(summary).MatchString(last) {
		t.Errorf("last log line %q does not match %s", last, summary)
	}
	h := s.handler()

	// The analyzer stays strict: a corrupt entry would skew its deltas.
	if wa := get(t, h, "/v1/analyze"); wa.Code != http.StatusInternalServerError {
		t.Fatalf("GET /v1/analyze over a corrupt archive: %d %s, want 500", wa.Code, wa.Body)
	}
	for _, name := range []string{misnamed, filepath.Join(dir, trunc.Key+".json"), filepath.Join(dir, trunc.Key+".jsonl")} {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}

	w := postJSON(t, h, "/v1/runs", tinyRun())
	if w.Code != http.StatusOK || w.Header().Get("X-Tcsb-Cache") != "hit" {
		t.Fatalf("restarted server: %d cache=%s", w.Code, w.Header().Get("X-Tcsb-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), fake) {
		t.Fatal("primed bytes differ from the archived run")
	}
	if st := s.cache.Stats(); st.Misses != 0 || st.Primed != 1 {
		t.Fatalf("stats after primed hit: %s, want misses=0 primed=1", st)
	}

	wa := get(t, h, "/v1/analyze")
	if wa.Code != http.StatusOK {
		t.Fatalf("GET /v1/analyze: %d %s", wa.Code, wa.Body)
	}
	var rep struct {
		Runs   int              `json:"runs"`
		Groups []map[string]any `json:"groups"`
		Alerts []map[string]any `json:"alerts"`
	}
	if err := json.Unmarshal(wa.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 || len(rep.Groups) != 2 || len(rep.Alerts) != 0 {
		t.Fatalf("report: %+v", rep)
	}

	wp := postJSON(t, h, "/v1/analyze", map[string]any{
		"rules": []map[string]any{{"column": "v", "max": 1}},
	})
	if wp.Code != http.StatusOK || wp.Header().Get("X-Tcsb-Alerts") != "2" {
		t.Fatalf("POST /v1/analyze: %d alerts=%q %s", wp.Code, wp.Header().Get("X-Tcsb-Alerts"), wp.Body)
	}

	if bad := postJSON(t, h, "/v1/analyze", map[string]any{"rules": []map[string]any{{"column": ""}}}); bad.Code != http.StatusBadRequest {
		t.Fatalf("invalid expectations: %d, want 400", bad.Code)
	}
	if off := get(t, testServer().handler(), "/v1/analyze"); off.Code != http.StatusNotFound {
		t.Fatalf("analyze without an archive: %d, want 404", off.Code)
	}
}

// TestServerPrimesLegacyArchive boots over a checked-in archive written
// before manifests carried a content sha256 (by tcsb-experiments
// -archive-dir for tinyRun): the run must still prime and be served as
// a hit with its archived bytes.
func TestServerPrimesLegacyArchive(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy-archive")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "sha256") {
			t.Fatalf("%s records a sha256; the fixture must predate the field", e.Name())
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := experiments.Resolve(tinyRun())
	if err != nil {
		t.Fatal(err)
	}
	archived, err := os.ReadFile(filepath.Join(dir, res.Key+".jsonl"))
	if err != nil {
		t.Fatalf("legacy archive has no run for tinyRun's key: %v", err)
	}

	s := newServer(2, 4, 64, dir, nil)
	if primed, skipped, err := s.primeFromArchive(); err != nil || primed != 1 || skipped != 0 {
		t.Fatalf("primed %d, skipped %d, err %v; want 1 primed, 0 skipped", primed, skipped, err)
	}
	w := postJSON(t, s.handler(), "/v1/runs", tinyRun())
	if w.Code != http.StatusOK || w.Header().Get("X-Tcsb-Cache") != "hit" {
		t.Fatalf("legacy run: %d cache=%s", w.Code, w.Header().Get("X-Tcsb-Cache"))
	}
	if !bytes.Equal(w.Body.Bytes(), archived) {
		t.Fatal("primed bytes differ from the legacy archive")
	}
	if st := s.cache.Stats(); st.Misses != 0 || st.Primed != 1 {
		t.Fatalf("stats: %s, want misses=0 primed=1", st)
	}
}
