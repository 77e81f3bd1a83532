package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile is the repository's benchmark definition, one level up.
const benchmarkFile = "../BENCHMARK.json"

type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkDef {
	t.Helper()
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var def benchmarkDef
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return def
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The metrics the tool emits are exactly the ones BENCHMARK.json
// declares, with the same units, and every name and unit is well formed.
func TestBenchmarkDeclaresEmittedMetrics(t *testing.T) {
	def := loadBenchmark(t)
	declared := map[string]string{}
	for _, m := range def.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	emitted := map[string]string{}
	for _, m := range endToEnd {
		emitted[m.name] = m.unit
	}
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("end_to_end declares %v, the tool emits %v", declared, emitted)
	}

	declared = map[string]string{}
	for _, m := range def.PerLayer {
		declared[m.Name] = m.Unit
	}
	emitted = map[string]string{}
	for _, m := range perLayer() {
		emitted[m.name] = m.unit
	}
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("per_layer declares %v, the tool emits %v", declared, emitted)
	}
	if len(def.PerLayer) > 128 || len(def.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(def.PerLayer), len(def.EndToEnd))
	}

	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	for _, m := range perLayer() {
		check(m.name, m.unit)
	}
}

// setup_s is present, lower is better, and it has the largest bound.
func TestSetupHasTheLargestBound(t *testing.T) {
	def := loadBenchmark(t)
	var setup *boundDef
	for i, m := range def.EndToEnd {
		if m.Name == "setup_s" {
			setup = &def.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s entry %+v", setup)
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
}

func TestBenchmarkDeclaresTheWorkloads(t *testing.T) {
	def := loadBenchmark(t)
	var declared, known []string
	for _, w := range def.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	sort.Strings(declared)
	sort.Strings(known)
	if !reflect.DeepEqual(declared, known) {
		t.Errorf("BENCHMARK.json workloads %v, the tool runs %v", declared, known)
	}
	if !reflect.DeepEqual(def.Paths, []string{"bench"}) || def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", def.Paths, def.RunSeconds)
	}
}
