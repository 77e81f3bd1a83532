package analyze

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tcsb/internal/experiments"
)

// Rule is one pinned expectation. Experiment, Table and Row scope the
// rule ("" = any; Table matches as a title substring); Column names the
// metric and is required. At least one bound must be set:
//
//   - Min/Max: absolute bounds on every matching cell of every run.
//   - MaxRelDelta: bound on |relative change| between consecutive runs
//     of a group (a fraction: 0.05 = 5%). A metric that moves from
//     exactly zero to non-zero counts as an infinite change.
//   - MaxDriftSlope: bound on |per-epoch least-squares slope| of a
//     matching column inside one timeline run.
type Rule struct {
	Experiment    string   `json:"experiment,omitempty"`
	Table         string   `json:"table,omitempty"`
	Column        string   `json:"column"`
	Row           string   `json:"row,omitempty"`
	Min           *float64 `json:"min,omitempty"`
	Max           *float64 `json:"max,omitempty"`
	MaxRelDelta   *float64 `json:"maxRelDelta,omitempty"`
	MaxDriftSlope *float64 `json:"maxDriftSlope,omitempty"`
}

// Expectations is the checked-in expectation file: a rule list applied
// to every analyzed archive set.
type Expectations struct {
	Rules []Rule `json:"rules"`
}

// ParseExpectations strictly decodes (experiments.DecodeStrict: exactly
// one JSON value, no unknown fields) and validates an expectations
// document.
func ParseExpectations(data []byte) (Expectations, error) {
	var exp Expectations
	if err := experiments.DecodeStrict(data, &exp); err != nil {
		return Expectations{}, fmt.Errorf("expectations: %w", err)
	}
	for i, r := range exp.Rules {
		if r.Column == "" {
			return Expectations{}, fmt.Errorf("expectations rule %d: column is required", i)
		}
		if r.Min == nil && r.Max == nil && r.MaxRelDelta == nil && r.MaxDriftSlope == nil {
			return Expectations{}, fmt.Errorf("expectations rule %d: set at least one of min, max, maxRelDelta, maxDriftSlope", i)
		}
		if r.Min != nil && r.Max != nil && *r.Min > *r.Max {
			return Expectations{}, fmt.Errorf("expectations rule %d: min %v > max %v", i, *r.Min, *r.Max)
		}
		if r.MaxRelDelta != nil && *r.MaxRelDelta < 0 {
			return Expectations{}, fmt.Errorf("expectations rule %d: maxRelDelta %v is negative", i, *r.MaxRelDelta)
		}
		if r.MaxDriftSlope != nil && *r.MaxDriftSlope < 0 {
			return Expectations{}, fmt.Errorf("expectations rule %d: maxDriftSlope %v is negative", i, *r.MaxDriftSlope)
		}
	}
	return exp, nil
}

// LoadExpectations reads and validates an expectations file.
func LoadExpectations(path string) (Expectations, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Expectations{}, err
	}
	exp, err := ParseExpectations(data)
	if err != nil {
		return Expectations{}, fmt.Errorf("%s: %w", path, err)
	}
	return exp, nil
}

// matches reports whether the rule scopes onto one cell address.
func (r Rule) matches(experiment, title, column, row string) bool {
	if r.Experiment != "" && r.Experiment != experiment {
		return false
	}
	if r.Table != "" && !strings.Contains(title, r.Table) {
		return false
	}
	if r.Column != column {
		return false
	}
	if r.Row != "" && r.Row != row {
		return false
	}
	return true
}

// RunMeta identifies one run inside a group.
type RunMeta struct {
	Key  string `json:"key"`
	Seed int64  `json:"seed"`
}

// Delta is one numeric cell compared between two consecutive runs of a
// group. All numbers are canonically rendered strings, so the report
// is byte-stable.
type Delta struct {
	Experiment string `json:"experiment"`
	Table      string `json:"table"`
	Column     string `json:"column"`
	Row        string `json:"row"`
	Unit       string `json:"unit,omitempty"`
	FromKey    string `json:"fromKey"`
	ToKey      string `json:"toKey"`
	FromSeed   int64  `json:"fromSeed"`
	ToSeed     int64  `json:"toSeed"`
	From       string `json:"from"`
	To         string `json:"to"`
	Delta      string `json:"delta"`
	Rel        string `json:"rel,omitempty"` // absent when From is 0

	fromV, toV float64
	relV       float64
	relOK      bool
}

// Drift is the least-squares per-epoch slope of one numeric column of
// one timeline table (a table whose first column is "epoch").
type Drift struct {
	Experiment string `json:"experiment"`
	Table      string `json:"table"`
	Column     string `json:"column"`
	Key        string `json:"key"`
	Seed       int64  `json:"seed"`
	Points     int    `json:"points"`
	Slope      string `json:"slope"`

	slopeV float64
}

// Alert is one triggered expectation, machine-readable.
type Alert struct {
	Kind       string `json:"kind"` // "bound" | "delta" | "drift"
	Rule       int    `json:"rule"` // index into the expectations rule list
	Group      int    `json:"group"`
	Experiment string `json:"experiment"`
	Table      string `json:"table"`
	Column     string `json:"column"`
	Row        string `json:"row,omitempty"`
	Key        string `json:"key"` // the offending run
	Seed       int64  `json:"seed"`
	PrevKey    string `json:"prevKey,omitempty"` // delta alerts: the compared-against run
	Value      string `json:"value"`
	Limit      string `json:"limit"`
	Detail     string `json:"detail"`
}

// Group is one canonical request shape with its runs in seed order.
type Group struct {
	Shape  string    `json:"shape"`
	Runs   []RunMeta `json:"runs"`
	Deltas []Delta   `json:"deltas"`
	Drifts []Drift   `json:"drifts"`
}

// Report is the full analyzer output. Marshalling it (RenderJSON) is
// byte-deterministic for a given archive set and expectations.
type Report struct {
	Runs   int     `json:"runs"`
	Rules  int     `json:"rules"`
	Groups []Group `json:"groups"`
	Alerts []Alert `json:"alerts"`
}

// canon renders a float canonically: the shortest representation that
// round-trips, the same on every run — the byte-stability anchor for
// the whole report.
func canon(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// parseNumeric parses a rendered table cell: a plain number ("42",
// "0.5", "1.38e+09") or a percentage ("91.9%"). Non-numeric cells
// (labels, digests, schedules) simply don't participate in deltas.
func parseNumeric(cell string) (v float64, unit string, ok bool) {
	s := strings.TrimSpace(cell)
	if strings.HasSuffix(s, "%") {
		unit = "%"
		s = strings.TrimSuffix(s, "%")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, "", false
	}
	return v, unit, true
}

// Analyze groups the archived runs by request shape and computes the
// full longitudinal report: cross-run deltas, epoch drift slopes, and
// alerts against the expectations. Pure and deterministic: identical
// inputs yield an identical Report, field for field.
func Analyze(runs []Run, exp Expectations) *Report {
	byShape := make(map[string][]*Run)
	var shapes []string
	for i := range runs {
		s := Shape(runs[i].Request)
		if _, seen := byShape[s]; !seen {
			shapes = append(shapes, s)
		}
		byShape[s] = append(byShape[s], &runs[i])
	}
	sort.Strings(shapes)

	rep := &Report{Runs: len(runs), Rules: len(exp.Rules), Groups: []Group{}, Alerts: []Alert{}}
	for gi, shape := range shapes {
		rs := byShape[shape]
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Request.Seed != rs[j].Request.Seed {
				return rs[i].Request.Seed < rs[j].Request.Seed
			}
			return rs[i].Key < rs[j].Key
		})
		g := Group{Shape: shape, Runs: []RunMeta{}, Deltas: []Delta{}, Drifts: []Drift{}}
		for _, r := range rs {
			g.Runs = append(g.Runs, RunMeta{Key: r.Key, Seed: r.Request.Seed})
		}
		for i := 1; i < len(rs); i++ {
			g.Deltas = append(g.Deltas, deltas(rs[i-1], rs[i])...)
		}
		for _, r := range rs {
			g.Drifts = append(g.Drifts, drifts(r)...)
		}
		rep.Alerts = append(rep.Alerts, groupAlerts(gi, rs, &g, exp)...)
		rep.Groups = append(rep.Groups, g)
	}
	return rep
}

// deltas diffs every numeric cell shared between two runs: tables
// matched by (experiment, title), rows by first-column label, columns
// by name. Everything unmatched is silently absent — a run that gained
// a table participates from the next pair on.
func deltas(a, b *Run) []Delta {
	type tkey struct{ exp, title string }
	prior := make(map[tkey]*experiments.Line, len(a.Rows))
	for i := range a.Rows {
		k := tkey{a.Rows[i].Experiment, a.Rows[i].Table.Title}
		if _, dup := prior[k]; !dup {
			prior[k] = &a.Rows[i]
		}
	}
	var out []Delta
	for i := range b.Rows {
		brow := &b.Rows[i]
		arow, ok := prior[tkey{brow.Experiment, brow.Table.Title}]
		if !ok {
			continue
		}
		acol := make(map[string]int, len(arow.Table.Columns))
		for j, c := range arow.Table.Columns {
			if _, dup := acol[c]; !dup {
				acol[c] = j
			}
		}
		byLabel := make(map[string][]string, len(arow.Table.Rows))
		for _, r := range arow.Table.Rows {
			if len(r) > 0 {
				if _, dup := byLabel[r[0]]; !dup {
					byLabel[r[0]] = r
				}
			}
		}
		for _, row := range brow.Table.Rows {
			if len(row) == 0 {
				continue
			}
			prev, ok := byLabel[row[0]]
			if !ok {
				continue
			}
			for j := 1; j < len(brow.Table.Columns) && j < len(row); j++ {
				aj, ok := acol[brow.Table.Columns[j]]
				if !ok || aj >= len(prev) {
					continue
				}
				bv, bunit, bok := parseNumeric(row[j])
				av, aunit, aok := parseNumeric(prev[aj])
				if !aok || !bok || aunit != bunit {
					continue
				}
				d := Delta{
					Experiment: brow.Experiment,
					Table:      brow.Table.Title,
					Column:     brow.Table.Columns[j],
					Row:        row[0],
					Unit:       bunit,
					FromKey:    a.Key,
					ToKey:      b.Key,
					FromSeed:   a.Request.Seed,
					ToSeed:     b.Request.Seed,
					From:       canon(av),
					To:         canon(bv),
					Delta:      canon(bv - av),
					fromV:      av,
					toV:        bv,
				}
				if av != 0 {
					d.relV = (bv - av) / math.Abs(av)
					d.relOK = true
					d.Rel = canon(d.relV)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// drifts computes per-epoch least-squares slopes for every numeric
// column of every epoch-keyed table in one run.
func drifts(r *Run) []Drift {
	var out []Drift
	for i := range r.Rows {
		t := r.Rows[i].Table
		if len(t.Columns) < 2 || t.Columns[0] != "epoch" {
			continue
		}
		for j := 1; j < len(t.Columns); j++ {
			var xs, ys []float64
			for _, row := range t.Rows {
				if j >= len(row) {
					continue
				}
				x, _, xok := parseNumeric(row[0])
				y, _, yok := parseNumeric(row[j])
				if xok && yok {
					xs = append(xs, x)
					ys = append(ys, y)
				}
			}
			slope, ok := leastSquaresSlope(xs, ys)
			if !ok {
				continue
			}
			out = append(out, Drift{
				Experiment: r.Rows[i].Experiment,
				Table:      t.Title,
				Column:     t.Columns[j],
				Key:        r.Key,
				Seed:       r.Request.Seed,
				Points:     len(xs),
				Slope:      canon(slope),
				slopeV:     slope,
			})
		}
	}
	return out
}

// leastSquaresSlope fits y = a + b·x and returns b. Needs at least two
// distinct x values.
func leastSquaresSlope(xs, ys []float64) (float64, bool) {
	if len(xs) < 2 {
		return 0, false
	}
	var xbar, ybar float64
	for i := range xs {
		xbar += xs[i]
		ybar += ys[i]
	}
	xbar /= float64(len(xs))
	ybar /= float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - xbar) * (ys[i] - ybar)
		den += (xs[i] - xbar) * (xs[i] - xbar)
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// groupAlerts applies every rule to one group: absolute bounds over
// every run's cells, relative-change thresholds over the computed
// deltas, slope bounds over the computed drifts. Iteration order —
// runs, then deltas, then drifts; rules innermost — is fixed, so the
// alert list is byte-stable.
func groupAlerts(gi int, rs []*Run, g *Group, exp Expectations) []Alert {
	alerts := []Alert{}
	for _, run := range rs {
		for i := range run.Rows {
			t := run.Rows[i].Table
			for _, row := range t.Rows {
				if len(row) == 0 {
					continue
				}
				for j := 1; j < len(t.Columns) && j < len(row); j++ {
					v, _, ok := parseNumeric(row[j])
					if !ok {
						continue
					}
					for ri, rule := range exp.Rules {
						if rule.Min == nil && rule.Max == nil {
							continue
						}
						if !rule.matches(run.Rows[i].Experiment, t.Title, t.Columns[j], row[0]) {
							continue
						}
						if rule.Min != nil && v < *rule.Min {
							alerts = append(alerts, Alert{
								Kind: "bound", Rule: ri, Group: gi,
								Experiment: run.Rows[i].Experiment, Table: t.Title,
								Column: t.Columns[j], Row: row[0],
								Key: run.Key, Seed: run.Request.Seed,
								Value: canon(v), Limit: canon(*rule.Min),
								Detail: fmt.Sprintf("%s[%s].%s = %s below pinned minimum %s",
									run.Rows[i].Experiment, row[0], t.Columns[j], row[j], canon(*rule.Min)),
							})
						}
						if rule.Max != nil && v > *rule.Max {
							alerts = append(alerts, Alert{
								Kind: "bound", Rule: ri, Group: gi,
								Experiment: run.Rows[i].Experiment, Table: t.Title,
								Column: t.Columns[j], Row: row[0],
								Key: run.Key, Seed: run.Request.Seed,
								Value: canon(v), Limit: canon(*rule.Max),
								Detail: fmt.Sprintf("%s[%s].%s = %s above pinned maximum %s",
									run.Rows[i].Experiment, row[0], t.Columns[j], row[j], canon(*rule.Max)),
							})
						}
					}
				}
			}
		}
	}
	for _, d := range g.Deltas {
		for ri, rule := range exp.Rules {
			if rule.MaxRelDelta == nil || !rule.matches(d.Experiment, d.Table, d.Column, d.Row) {
				continue
			}
			// From zero to non-zero is an infinite relative change; an
			// exact repeat (delta 0) never alerts.
			breached := d.relOK && math.Abs(d.relV) > *rule.MaxRelDelta
			if !d.relOK && d.toV != d.fromV {
				breached = true
			}
			if !breached {
				continue
			}
			rel := d.Rel
			if rel == "" {
				rel = "+Inf"
			}
			alerts = append(alerts, Alert{
				Kind: "delta", Rule: ri, Group: gi,
				Experiment: d.Experiment, Table: d.Table, Column: d.Column, Row: d.Row,
				Key: d.ToKey, Seed: d.ToSeed, PrevKey: d.FromKey,
				Value: rel, Limit: canon(*rule.MaxRelDelta),
				Detail: fmt.Sprintf("%s[%s].%s moved %s → %s (rel %s) past threshold %s between seeds %d and %d",
					d.Experiment, d.Row, d.Column, d.From, d.To, rel, canon(*rule.MaxRelDelta), d.FromSeed, d.ToSeed),
			})
		}
	}
	for _, dr := range g.Drifts {
		for ri, rule := range exp.Rules {
			if rule.MaxDriftSlope == nil || !rule.matches(dr.Experiment, dr.Table, dr.Column, "") {
				continue
			}
			if math.Abs(dr.slopeV) <= *rule.MaxDriftSlope {
				continue
			}
			alerts = append(alerts, Alert{
				Kind: "drift", Rule: ri, Group: gi,
				Experiment: dr.Experiment, Table: dr.Table, Column: dr.Column,
				Key: dr.Key, Seed: dr.Seed,
				Value: dr.Slope, Limit: canon(*rule.MaxDriftSlope),
				Detail: fmt.Sprintf("%s.%s drifts %s per epoch over %d epochs, past threshold %s",
					dr.Experiment, dr.Column, dr.Slope, dr.Points, canon(*rule.MaxDriftSlope)),
			})
		}
	}
	return alerts
}
