package main

// The control plane: a net/http JSON API over the simulation engine.
// Handlers reduce requests to core.RunRequest values, resolve them
// through the shared experiments.Resolve plumbing (the same validation
// and canonicalization path as the CLI — identical work resolves
// identical cache keys), and serve rendered JSONL out of the
// content-addressed run cache. Campaigns execute on a bounded fleet:
// `fleet` run slots over a global worker budget, each campaign getting
// budget/fleet workers — output is byte-identical for every allotment,
// so the scheduler can never change a response.
//
// Error surface: every invalid input is an HTTP 4xx with a JSON error
// body, every execution failure a 5xx; a recover middleware converts
// any stray panic into a 500 instead of killing the process. No
// request input can take the service down.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"tcsb/internal/analyze"
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/experiments"
	"tcsb/internal/netsim"
	"tcsb/internal/runcache"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// maxSweepRuns bounds one sweep request's expanded grid.
const maxSweepRuns = 256

// maxBodyBytes caps every request body. Run requests, sweep specs and
// expectations documents are a few hundred bytes, so 1 MiB refuses
// nothing legitimate while keeping a client from making the server
// buffer an unbounded upload.
const maxBodyBytes = 1 << 20

type server struct {
	cache      *runcache.Cache
	slots      chan struct{} // fleet run slots; holding one runs a campaign
	perRun     int           // campaign workers per slot
	archiveDir string        // run archive: cache fills persist here ("" = off)
	logf       func(format string, args ...any)
}

// newServer wires the fleet scheduler: fleetSlots concurrent campaigns
// over a global budget of workers, perRun = budget/fleetSlots each.
// A non-empty archiveDir persists every cache fill as a run archive
// (<key>.jsonl + manifest) and enables the /v1/analyze endpoint.
func newServer(fleetSlots, budget, cacheEntries int, archiveDir string, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	perRun := budget / fleetSlots
	if perRun < 1 {
		perRun = 1
	}
	return &server{
		cache:      runcache.New(cacheEntries),
		slots:      make(chan struct{}, fleetSlots),
		perRun:     perRun,
		archiveDir: archiveDir,
		logf:       logf,
	}
}

// primeFromArchive warms the run cache from the archive directory at
// boot, so a restarted server serves previously computed runs as hits
// (misses stay 0 across a restart). Every manifest request is
// re-resolved and must still canonicalize to its archived key: an
// archive written by an older engine whose config digest moved on is
// skipped (logged), never served under a stale address. So is an entry
// that cannot be read (a truncated JSONL stream, a manifest naming
// another key): one bad entry costs its own run, not the boot. Only a
// directory that cannot be listed is an error. The closing log line
// gives the counts, how long the prime took and how many bytes of run
// streams it read.
func (s *server) primeFromArchive() (primed, skipped int, err error) {
	start := time.Now()
	runs, bad, err := analyze.ScanArchive(s.archiveDir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range bad {
		s.logf("archive: %v; skipping", e)
	}
	skipped = len(bad)
	read := 0
	for _, run := range runs {
		read += len(run.Raw)
		res, err := experiments.Resolve(run.Request)
		if err != nil || res.Key != run.Key {
			s.logf("archive %s: stale (re-resolves to err=%v key=%q); skipping", run.Key, err, keyOf(res))
			skipped++
			continue
		}
		if s.cache.Prime(run.Key, run.Raw) {
			primed++
		}
	}
	s.logf("primed %d runs from archive %s (%d skipped) in %s, %d run bytes read",
		primed, s.archiveDir, skipped, time.Since(start).Round(time.Microsecond), read)
	return primed, skipped, nil
}

func keyOf(res *experiments.Resolved) string {
	if res == nil {
		return ""
	}
	return res.Key
}

// handler builds the route table behind the recover middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/experiments/", s.handleExperiment)
	mux.HandleFunc("/v1/interventions", s.handleInterventions)
	mux.HandleFunc("/v1/presets", s.handlePresets)
	mux.HandleFunc("/v1/cache", s.handleCache)
	mux.HandleFunc("/v1/runs", s.handleRuns)
	mux.HandleFunc("/v1/sweeps", s.handleSweeps)
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	return s.recoverPanics(limitBodies(mux))
}

// limitBodies caps every request body at maxBodyBytes. A handler that
// reads past the cap gets an *http.MaxBytesError, which writeBodyError
// answers with 413.
func limitBodies(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a handler panic into a 500 JSON error: the
// API boundary contract is that no request input crashes the service.
func (s *server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeError emits the JSON error body every failure path shares.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeBodyError answers a request body that could not be read or
// decoded: 413 when it ran past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err.Error())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status": "ok",
		"fleet":  cap(s.slots),
		"perRun": s.perRun,
	})
}

// handleExperiments serves the machine-readable registry.
func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, experiments.Catalog())
}

// handleExperiment serves one registry entry by name.
func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/experiments/")
	for _, d := range experiments.Catalog() {
		if d.Name == name {
			writeJSON(w, d)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q; GET /v1/experiments lists the catalog", name))
}

func (s *server) handleInterventions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type row struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		// ConstructionOnly interventions run under whatIf but cannot
		// fire at timeline epochs.
		ConstructionOnly bool `json:"constructionOnly,omitempty"`
	}
	var out []row
	for _, iv := range counterfactual.All() {
		out = append(out, row{iv.Name, iv.Description, iv.ConstructionOnly})
	}
	writeJSON(w, out)
}

func (s *server) handlePresets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type named struct {
		Name        string `json:"name"`
		Spec        string `json:"spec,omitempty"`
		Description string `json:"description"`
	}
	out := map[string][]named{}
	for _, p := range scenario.ScalePresets() {
		out["scale"] = append(out["scale"], named{Name: p.Name, Description: p.Description})
	}
	for _, p := range netsim.LinkPresets() {
		out["net"] = append(out["net"], named{p.Name, p.Spec, p.Description})
	}
	for _, p := range timeline.Presets() {
		out["timeline"] = append(out["timeline"], named{p.Name, p.Spec, p.Description})
	}
	writeJSON(w, out)
}

func (s *server) handleCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, s.cache.Stats())
}

// decodeRequest reads the capped request body and parses it with
// experiments.DecodeStrict: unknown fields and anything after the one
// JSON value are errors, not silently dropped — a typoed field name or
// a second concatenated request must never quietly run the wrong
// campaign. A body past maxBodyBytes fails the read with an
// *http.MaxBytesError.
func decodeRequest(r *http.Request, v any) error {
	body, err := io.ReadAll(r.Body)
	if err == nil {
		err = experiments.DecodeStrict(body, v)
	}
	if err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// compute serves res from the cache, running the campaign on a fleet
// slot on a miss. Concurrent identical requests coalesce into one
// computation (runcache single-flight). ctx gates only this caller's
// wait: the flight itself runs detached on server lifetime — slot
// acquisition included — so a client that cancels mid-flight (even the
// one that started it) never poisons the coalesced followers, and the
// finished bytes still land in the cache. Cache fills persist to the
// run archive when one is configured; an archive write failure is
// logged, not served — the response bytes are already correct.
func (s *server) compute(ctx context.Context, res *experiments.Resolved) ([]byte, bool, error) {
	return s.cache.GetOrCompute(ctx, res.Key, func() ([]byte, error) {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		s.logf("run %s: %s", res.Key[:12], res.Mode)
		body, err := res.ExecuteJSONL(nil)
		if err == nil && s.archiveDir != "" {
			if aerr := analyze.WriteArchive(s.archiveDir, res.Key, res.Req, body); aerr != nil {
				s.logf("archive %s: %v", res.Key[:12], aerr)
			}
		}
		return body, err
	})
}

// resolveForFleet resolves a request and pins its worker allotment to
// the fleet share (a client may ask for fewer, never more; the output
// is byte-identical either way, so the clamp can never change a
// response).
func (s *server) resolveForFleet(req core.RunRequest) (*experiments.Resolved, error) {
	res, err := experiments.Resolve(req)
	if err != nil {
		return nil, err
	}
	workers := s.perRun
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	res.RC.Workers = workers
	// Raise derivation parallelism through Resolved.Parallel, never by
	// mutating the canonical request: res.Req is what responses echo and
	// archives record, and it must not grow a parallel value the client
	// never sent (the output is byte-identical either way).
	if res.Parallel < 1 {
		res.Parallel = 2
	}
	return res, nil
}

// handleRuns is the single-run endpoint: POST a core.RunRequest, get
// the run's JSONL stream — from the cache when the key is warm
// (byte-identical to a fresh run; X-Tcsb-Cache says which).
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a run request")
		return
	}
	var req core.RunRequest
	if err := decodeRequest(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	res, err := s.resolveForFleet(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, hit, err := s.compute(r.Context(), res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The whole body is in hand, so it goes out with a Content-Length
	// instead of chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Tcsb-Run-Key", res.Key)
	w.Header().Set("X-Tcsb-Cache", cacheLabel(hit))
	w.Write(body)
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleAnalyze is the analyze-only endpoint: the longitudinal
// analyzer over the server's own run archive. GET analyzes with no
// expectations (deltas and drifts only); POST takes an expectations
// document — the same rule schema as a checked-in expectations.json —
// and additionally reports alerts against it. The response is the full
// report JSON, byte-identical to the CLI's `-analyze -json` over the
// same archive.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.archiveDir == "" {
		writeError(w, http.StatusNotFound, "no run archive: start the server with -archive-dir to enable /v1/analyze")
		return
	}
	var exp analyze.Expectations
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeBodyError(w, fmt.Errorf("request body: %w", err))
			return
		}
		if exp, err = analyze.ParseExpectations(body); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET, or POST an expectations document")
		return
	}
	runs, err := analyze.LoadArchive(s.archiveDir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("archive: %v", err))
		return
	}
	rep := analyze.Analyze(runs, exp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Tcsb-Alerts", fmt.Sprint(len(rep.Alerts)))
	if err := analyze.RenderJSON(w, rep); err != nil {
		s.logf("analyze render: %v", err)
	}
}

// sweepSpec is the parameter-sweep grammar: every list is one grid
// axis, the cross product is the run fleet. whatIf and timelines merge
// into a single mode axis — each whatIf entry is a paired
// counterfactual cell, each timelines entry a longitudinal cell, and
// an explicit "" in either is the plain baseline. days applies to the
// non-timeline cells (timeline schedules own their calendar); epochs
// applies to the timeline cells.
type sweepSpec struct {
	Seeds        []int64   `json:"seeds"`
	Scales       []float64 `json:"scales,omitempty"`
	Presets      []string  `json:"presets,omitempty"`
	NetProfiles  []string  `json:"netProfiles,omitempty"`
	WhatIf       []string  `json:"whatIf,omitempty"`
	Timelines    []string  `json:"timelines,omitempty"`
	AttackParams string    `json:"attackParams,omitempty"`
	Days         int       `json:"days,omitempty"`
	Epochs       int       `json:"epochs,omitempty"`
	Only         []string  `json:"only,omitempty"`
}

// expand builds the grid in deterministic order:
// seeds × scales × presets × netProfiles × (whatIf ∪ timelines).
// Axis values may repeat, so a small body can describe more cells than
// any host can hold: the grid is counted from its axis lengths first,
// and one past maxSweepRuns is refused before a cell is built.
func (sp sweepSpec) expand() ([]core.RunRequest, error) {
	one := func(vs []string) []string {
		if len(vs) == 0 {
			return []string{""}
		}
		return vs
	}
	seeds := sp.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	scales := sp.Scales
	if len(scales) == 0 {
		scales = []float64{0}
	}
	// Dedupe the mode axis: an explicit "" means the plain baseline in
	// either list, so whatIf ∪ timelines must merge the two spellings
	// into one cell — `"whatIf":[""], "timelines":[""]` is one baseline,
	// not two identical runs burning a grid slot each.
	type modeCell struct{ whatIf, timeline string }
	var modes []modeCell
	seen := make(map[modeCell]bool)
	addMode := func(m modeCell) {
		if m.whatIf == "" && m.timeline == "" {
			m = modeCell{}
		}
		if !seen[m] {
			seen[m] = true
			modes = append(modes, m)
		}
	}
	for _, wi := range sp.WhatIf {
		addMode(modeCell{whatIf: wi})
	}
	for _, tl := range sp.Timelines {
		addMode(modeCell{timeline: tl})
	}
	if len(modes) == 0 {
		modes = []modeCell{{}}
	}

	presets, nps := one(sp.Presets), one(sp.NetProfiles)
	n := 1
	for _, axis := range []int{len(seeds), len(scales), len(presets), len(nps), len(modes)} {
		// n <= maxSweepRuns before each product, so it cannot overflow.
		if n *= axis; n > maxSweepRuns {
			return nil, fmt.Errorf("sweep grid seeds×scales×presets×netProfiles×modes = %d×%d×%d×%d×%d is above the %d-run cap; split it",
				len(seeds), len(scales), len(presets), len(nps), len(modes), maxSweepRuns)
		}
	}
	out := make([]core.RunRequest, 0, n)
	for _, seed := range seeds {
		for _, scale := range scales {
			for _, preset := range presets {
				for _, np := range nps {
					for _, m := range modes {
						req := core.RunRequest{
							Seed:         seed,
							Scale:        scale,
							Preset:       preset,
							NetProfile:   np,
							AttackParams: sp.AttackParams,
							WhatIf:       m.whatIf,
							Timeline:     m.timeline,
							Only:         sp.Only,
						}
						if m.timeline == "" {
							req.Days = sp.Days
						} else {
							req.Epochs = sp.Epochs
						}
						out = append(out, req)
					}
				}
			}
		}
	}
	return out, nil
}

// sweepResult is one grid cell's NDJSON line.
type sweepResult struct {
	Index   int               `json:"index"`
	Request core.RunRequest   `json:"request"`
	Key     string            `json:"key"`
	Cached  bool              `json:"cached"`
	Results []json.RawMessage `json:"results"`
}

// handleSweeps expands a sweep grid, validates every cell before any
// simulation runs, executes the fleet under the bounded slots (cache
// coalescing deduplicates identical cells), and streams one NDJSON
// line per cell in grid order.
func (s *server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a sweep spec")
		return
	}
	var spec sweepSpec
	if err := decodeRequest(r, &spec); err != nil {
		writeBodyError(w, err)
		return
	}
	reqs, err := spec.expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Validate the whole grid first: a bad cell fails the sweep before
	// any compute is spent on the good ones.
	resolved := make([]*experiments.Resolved, len(reqs))
	for i, req := range reqs {
		res, err := s.resolveForFleet(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("sweep cell %d (%+v): %v", i, req, err))
			return
		}
		resolved[i] = res
	}
	s.logf("sweep: %d cells", len(resolved))

	// Stream in grid order: every cell computes concurrently under the
	// fleet slots, but row i is written — and flushed — the moment cell
	// i completes, never buffered behind the slowest cell in the grid. A
	// client watching the stream sees finished rows immediately (cached
	// cells first of all), instead of silence until the whole sweep ends.
	type cell struct {
		body []byte
		hit  bool
		err  error
	}
	cells := make([]cell, len(resolved))
	dones := make([]chan struct{}, len(resolved))
	for i := range resolved {
		dones[i] = make(chan struct{})
		go func(i int) {
			body, hit, err := s.compute(r.Context(), resolved[i])
			cells[i] = cell{body, hit, err}
			close(dones[i])
		}(i)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := range resolved {
		<-dones[i]
		c := cells[i]
		if c.err != nil {
			enc.Encode(map[string]any{"index": i, "key": resolved[i].Key, "error": c.err.Error()})
		} else {
			var lines []json.RawMessage
			for _, line := range strings.Split(strings.TrimRight(string(c.body), "\n"), "\n") {
				if line != "" {
					lines = append(lines, json.RawMessage(line))
				}
			}
			enc.Encode(sweepResult{
				Index:   i,
				Request: resolved[i].Req,
				Key:     resolved[i].Key,
				Cached:  c.hit,
				Results: lines,
			})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
