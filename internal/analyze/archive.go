// Package analyze is the longitudinal analyze-only mode: the
// collect-then-analyze split over prior run archives. A run archive is
// the exact JSONL byte stream the run cache stores — one `<key>.jsonl`
// per run plus a small `<key>.json` manifest carrying the canonical
// core.RunRequest — persisted by both entry points (tcsb-experiments
// -archive-dir, tcsb-server cache fills). The analyzer ingests an
// archive directory, groups runs by canonical request shape (the
// request with seed and concurrency knobs zeroed — repeated collection
// runs of the same campaign), and computes cross-run and cross-epoch
// deltas: per-experiment/per-column numeric diffs between consecutive
// runs, per-epoch drift slopes inside timeline tables, and regression
// alerts against pinned expectations (absolute bounds and
// relative-change thresholds from a checked-in expectations.json).
//
// Everything the analyzer emits is deterministic: fixed grouping and
// iteration order, canonical float rendering, byte-identical JSON and
// summary output for identical archive sets — so an analyze re-run is
// diffable, CI can cmp its output, and the alert stream doubles as a
// perf/figure-trajectory guard richer than the allocation ratchet.
package analyze

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"tcsb/internal/core"
	"tcsb/internal/experiments"
	"tcsb/internal/netsim"
)

// Run is one archived run: its content address, the canonical request
// that produced it, the raw JSONL bytes (what the run cache would
// store) and the re-ingested typed rows.
type Run struct {
	Key     string
	Request core.RunRequest
	Raw     []byte
	Rows    []experiments.ParsedRow
}

// manifest is the `<key>.json` sidecar written next to each archived
// JSONL stream. SHA256 is the hex sha256 of that stream; manifests
// written before it existed omit it and load without the check. The
// manifest decode is strict, so a binary older than the field rejects a
// manifest that carries it.
type manifest struct {
	Key     string          `json:"key"`
	Request core.RunRequest `json:"request"`
	SHA256  string          `json:"sha256,omitempty"`
}

// contentHash is the manifest's SHA256 of a JSONL stream.
func contentHash(jsonl []byte) string {
	sum := sha256.Sum256(jsonl)
	return hex.EncodeToString(sum[:])
}

// ManifestRequest is the request as archived: the canonical request
// with the concurrency knobs zeroed. Workers and Parallel are not part
// of the cache key (output is byte-identical for every value), so they
// must not fracture archive groups either.
func ManifestRequest(req core.RunRequest) core.RunRequest {
	req.Workers = 0
	req.Parallel = 0
	return req
}

// Shape is the grouping key for longitudinal analysis: the canonical
// JSON of the request with seed and concurrency zeroed. Two runs share
// a shape exactly when they are repeated collections of the same
// campaign — same config, specs and selection, different seed.
func Shape(req core.RunRequest) string {
	req = ManifestRequest(req)
	req.Seed = 0
	b, err := json.Marshal(req)
	if err != nil {
		// RunRequest is a plain struct of scalars and strings;
		// marshalling cannot fail.
		panic(err)
	}
	return string(b)
}

// WriteArchive persists one run into dir: `<key>.jsonl` (the exact
// rendered byte stream) then `<key>.json` (the manifest, with the
// stream's sha256). Writes go through a temp file and rename, and the
// manifest lands last, so a torn write never leaves a manifest pointing
// at missing or partial bytes. Re-archiving an existing key rewrites
// the identical content.
func WriteArchive(dir, key string, req core.RunRequest, jsonl []byte) error {
	if key == "" || key != filepath.Base(key) {
		return fmt.Errorf("archive key %q is not a bare file name", key)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("archive dir: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, key+".jsonl"), jsonl); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(manifest{Key: key, Request: ManifestRequest(req), SHA256: contentHash(jsonl)}, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(dir, key+".json"), append(mb, '\n'))
}

// writeAtomic installs data at path through a temp file and a rename.
// The temp file gets a unique name in path's directory, so concurrent
// writers of one key (a CLI -archive-dir run and a server sharing the
// directory) never write through the same file: each rename installs
// one writer's complete bytes.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadArchive reads every archived run in dir, keyed by its manifest,
// in deterministic (key-sorted) order. A manifest whose key disagrees
// with its file name, or whose JSONL sidecar is missing, unparsable or
// not the bytes its recorded sha256 names, is an error: archives are
// written atomically, so disagreement means tampering or truncation,
// and silently skipping a run would skew every delta downstream.
func LoadArchive(dir string) ([]Run, error) {
	runs, bad, err := ScanArchive(dir)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, bad[0]
	}
	return runs, nil
}

// ScanArchive reads dir like LoadArchive but does not stop at an entry
// it cannot read: the entry is left out of runs and its error, in key
// order, is returned in bad. err reports only a directory that cannot
// be listed. A server priming its cache uses it, so one corrupt entry
// costs that run, not the whole archive.
//
// Entries are independent, so they are read on up to GOMAXPROCS
// goroutines, each into its own slot; runs and bad come back in key
// order, exactly as an entry-by-entry read returns them.
func ScanArchive(dir string) (runs []Run, bad []error, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("archive dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	type slot struct {
		run Run
		err error
	}
	slots := make([]slot, len(names))
	netsim.ParallelFor(runtime.GOMAXPROCS(0), len(names), func(i int) {
		slots[i].run, slots[i].err = readEntry(dir, names[i])
	})

	runs = make([]Run, 0, len(names))
	for _, s := range slots {
		if s.err != nil {
			bad = append(bad, s.err)
			continue
		}
		runs = append(runs, s.run)
	}
	return runs, bad, nil
}

// readEntry reads the run whose manifest is dir/name. The content hash
// is checked last, after the run has parsed, so it adds a check and
// replaces none.
func readEntry(dir, name string) (Run, error) {
	mb, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return Run{}, err
	}
	var m manifest
	if err := experiments.DecodeStrict(mb, &m); err != nil {
		return Run{}, fmt.Errorf("manifest %s: %w", name, err)
	}
	if want := strings.TrimSuffix(name, ".json"); m.Key != want {
		return Run{}, fmt.Errorf("manifest %s names key %q", name, m.Key)
	}
	raw, err := os.ReadFile(filepath.Join(dir, m.Key+".jsonl"))
	if err != nil {
		return Run{}, fmt.Errorf("archived run %s: %w", m.Key, err)
	}
	rows, err := experiments.ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		return Run{}, fmt.Errorf("archived run %s: %w", m.Key, err)
	}
	if m.SHA256 != "" {
		if got := contentHash(raw); got != m.SHA256 {
			return Run{}, fmt.Errorf("archived run %s: content sha256 %s, manifest records %s", m.Key, got, m.SHA256)
		}
	}
	return Run{Key: m.Key, Request: m.Request, Raw: raw, Rows: rows}, nil
}
