package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// boundDef is one end-to-end metric's entry in BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]boundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// loadRecords reads the untraced run records of an -out file, in order.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictSame       verdict = "no change"
	verdictGain       verdict = "gain"
	verdictRegression verdict = "REGRESSION"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one (metric, workload) row.
type comparison struct {
	parent, change []float64 // per run, in run order
	better         string    // "lower" or "higher"
	bound          float64
}

// improves reports whether a reads better than b.
func (c comparison) improves(a, b float64) bool {
	if c.better == "higher" {
		return a > b
	}
	return a < b
}

// judge applies the rules: a regression is a change median worse than
// the parent's by more than the bound; when the parent's own spread is
// wider than the bound the row is unresolved, unless every change run
// beats every parent run; a gain needs at least ten pairs, the change
// winning at least nine tenths of them (ties count for neither), and a
// median gap wider than the parent's spread.
func (c comparison) judge() (v verdict, wins, pairs int) {
	pm, cm := median(c.parent), median(c.change)
	q1, _, q3 := quartiles(c.parent)
	pairs = min(len(c.parent), len(c.change))
	for i := 0; i < pairs; i++ {
		if c.improves(c.change[i], c.parent[i]) {
			wins++
		}
	}
	allBetter := len(c.parent) > 0 && len(c.change) > 0
	for _, x := range c.change {
		for _, y := range c.parent {
			if !c.improves(x, y) {
				allBetter = false
			}
		}
	}
	worse := (cm - pm) / math.Abs(pm)
	if c.better == "higher" {
		worse = -worse
	}
	switch {
	case pm == 0 || len(c.change) == 0:
		return verdictUnresolved, wins, pairs
	case iqrShare(c.parent) > c.bound && !allBetter:
		return verdictUnresolved, wins, pairs
	case worse > c.bound:
		return verdictRegression, wins, pairs
	case pairs >= 10 && 10*wins >= 9*pairs && c.improves(cm, pm) && math.Abs(cm-pm) > q3-q1:
		return verdictGain, wins, pairs
	}
	return verdictSame, wins, pairs
}

// runCompare prints one row per (metric, workload) and one fail-ratio
// row per workload. It reports bad when any metric regressed or any
// workload's failures rose.
func runCompare(w io.Writer, benchmark, parentPath, changePath string) (bad bool, err error) {
	bounds, err := loadBounds(benchmark)
	if err != nil {
		return false, err
	}
	parent, err := loadRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return false, err
	}
	var order []string
	seen := map[string]bool{}
	for _, r := range append(append([]record(nil), parent...), change...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins/pairs\tverdict")
	for _, wl := range order {
		p, c := byWorkload(parent, wl), byWorkload(change, wl)
		for _, b := range bounds {
			cmp := comparison{parent: values(p, b.Name), change: values(c, b.Name), better: b.Better, bound: b.Bound}
			v, wins, pairs := cmp.judge()
			if v == verdictRegression {
				bad = true
			}
			pm, cm := median(cmp.parent), median(cmp.change)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s (bound %.0f%%)\n", wl, b.Name,
				quartileCell(cmp.parent), quartileCell(cmp.change), 100*(cm-pm)/math.Abs(pm), wins, pairs, v, 100*b.Bound)
		}
		pf, cf := failRatio(p), failRatio(c)
		v := verdictSame
		if cf > pf {
			v, bad = "REJECT: more failures", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.4g (%d runs)\t%.4g (%d runs)\t\t\t%s\n", wl, pf, len(p), cf, len(c), v)
	}
	return bad, tw.Flush()
}

func byWorkload(rs []record, wl string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failRatio is failed operations over attempted ones, across runs.
func failRatio(rs []record) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func quartileCell(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
