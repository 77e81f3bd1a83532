package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

func TestJudge(t *testing.T) {
	parent := series(100, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 0)
	cases := []struct {
		name   string
		cmp    comparison
		want   verdict
		wins   int
		better string
	}{
		{
			name: "9 of 10 pairs won by more than the parent's spread is a gain",
			cmp:  comparison{parent: parent, change: series(95, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 10)},
			want: verdictGain, wins: 9,
		},
		{
			name: "8 of 10 pairs won is no claim",
			cmp:  comparison{parent: parent, change: series(95, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, 10, 10)},
			want: verdictSame, wins: 8,
		},
		{
			name: "fewer than ten pairs is no claim",
			cmp:  comparison{parent: parent[:9], change: series(95, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2)},
			want: verdictSame, wins: 9,
		},
		{
			name: "a median worse by more than the bound regresses",
			cmp:  comparison{parent: parent, change: series(115, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 0)},
			want: verdictRegression, wins: 0,
		},
		{
			name: "higher-is-better metrics regress downwards",
			cmp:  comparison{parent: parent, change: series(85, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 0), better: "higher"},
			want: verdictRegression, wins: 0,
		},
		{
			name: "a parent spread wider than the bound is unresolved",
			cmp:  comparison{parent: series(100, -30, 30, -20, 20, 0, -30, 30, 10, -10, 0), change: series(101, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 0)},
			want: verdictUnresolved, wins: 4,
		},
		{
			name: "unless every change run beats every parent run",
			cmp:  comparison{parent: series(100, -30, 30, -20, 20, 0, -30, 30, 10, -10, 0), change: series(50, -1, 1, -0.5, 0.5, 0, -1, 1, 0.2, -0.2, 0)},
			want: verdictGain, wins: 10,
		},
	}
	for _, c := range cases {
		c.cmp.bound = 0.10
		if c.cmp.better == "" {
			c.cmp.better = "lower"
		}
		v, wins, _ := c.cmp.judge()
		if v != c.want || wins != c.wins {
			t.Errorf("%s: got %s with %d wins, want %s with %d", c.name, v, wins, c.want, c.wins)
		}
	}
}

// runCompare reads two -out files and rejects a rise in failures even
// when every metric holds.
func TestCompareRejectsMoreFailures(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := record{Workload: "paper", Seed: int64(i), Result: result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"p50_ms": {100 + float64(i), "ms"}},
			}}
			if err := appendJSONLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, same, worse := write("parent.jsonl", 0), write("same.jsonl", 0), write("worse.jsonl", 1)

	var out bytes.Buffer
	if bad, err := runCompare(&out, bench, parent, same); err != nil || bad {
		t.Errorf("identical sets: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err := runCompare(&out, bench, parent, worse)
	if err != nil || !bad || !strings.Contains(out.String(), "REJECT") {
		t.Errorf("more failures: bad=%v err=%v\n%s", bad, err, out.String())
	}
}
