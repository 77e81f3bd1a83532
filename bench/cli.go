package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcsb/internal/core"
	"tcsb/internal/experiments"
)

// child is one finished program run.
type child struct {
	wall   float64 // seconds from exec to exit
	cpu    float64 // user+system seconds, from wait4's rusage
	rssMB  float64 // ru_maxrss
	stdout []byte
	err    error
}

// execute runs a program to completion with its stdout going to stdout,
// timing it from exec to exit.
func execute(path string, args []string, stdout io.Writer) launchResult {
	cmd := exec.Command(path, args...)
	var stderr tailWriter
	cmd.Stdout = stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := launchResult{WallS: time.Since(start).Seconds()}
	if err != nil {
		res.Err = fmt.Sprintf("%s %s: %v: %s", filepath.Base(path), strings.Join(args, " "), err, stderr.String())
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			res.RSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
		}
	}
	return res
}

// runChild runs a program directly, for checks whose measurements are
// not reported.
func runChild(path string, args ...string) child {
	var stdout bytes.Buffer
	res := execute(path, args, &stdout)
	c := child{wall: res.WallS, stdout: stdout.Bytes()}
	if res.Err != "" {
		c.err = fmt.Errorf("%s", res.Err)
	}
	return c
}

// tailWriter keeps the last few kilobytes written to it: enough of a
// child's stderr to explain a failure.
type tailWriter struct{ buf []byte }

const tailBytes = 4096

func (t *tailWriter) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailWriter) String() string { return strings.TrimSpace(string(t.buf)) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reference computes a request's output in process on the engine's
// fully serial path (one campaign worker, one derivation worker). The
// programs run with more workers; the engine promises the same bytes
// for every worker count, which is what this checks.
func reference(req core.RunRequest) ([]byte, error) {
	req.Workers, req.Parallel = 1, 1
	res, err := experiments.Resolve(req)
	if err != nil {
		return nil, err
	}
	return res.ExecuteJSONL(nil)
}

// runCLI measures a CLI workload: set-up children first, then
// tcsb-experiments runs one after another, cycling through the run's
// worlds, until the window has passed; then the check of world 0's
// output against the serial in-process reference. A host probe follows
// every child.
func runCLI(cfg config, l *launcher, wl workload, seed int64) (*outcome, error) {
	o := &outcome{info: map[string]any{}}
	hc := newHostClock()
	var setup []float64
	for i := 0; i < setups; i++ {
		ws := strconv.FormatInt(worldSeed(seed, i%worldsPerRun), 10)
		var c child
		var err error
		hc.run(func() { c, err = l.run(cfg.self, "-build-world", "-workload", wl.name, "-seed", ws) })
		if err != nil {
			return nil, err
		}
		o.attempted++
		if c.err != nil {
			o.fail("set-up: %v", c.err)
			continue
		}
		setup = append(setup, c.wall)
	}

	cli := filepath.Join(cfg.bin, "tcsb-experiments")
	var walls, cpus, rss []float64
	outs := make([][]byte, worldsPerRun)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < cfg.window; n++ {
		j := n % worldsPerRun
		args := cliArgs(wl.request(worldSeed(seed, j)), cliWorkers)
		var c child
		var err error
		hc.run(func() { c, err = l.run(cli, args...) })
		if err != nil {
			return nil, err
		}
		o.attempted++
		switch {
		case c.err != nil:
			o.fail("%v", c.err)
			continue
		case outs[j] == nil:
			outs[j] = c.stdout
		case !bytes.Equal(c.stdout, outs[j]):
			o.fail("tcsb-experiments %s printed sha256 %s, earlier %s", strings.Join(args, " "), sha(c.stdout), sha(outs[j]))
			continue
		}
		walls = append(walls, c.wall)
		cpus = append(cpus, c.cpu)
		rss = append(rss, c.rssMB)
	}
	if len(walls) == 0 || len(setup) == 0 {
		return o, nil // every operation failed; the failures are counted
	}

	req := wl.request(worldSeed(seed, 0))
	ref, err := reference(req)
	o.attempted++
	switch {
	case err != nil:
		o.fail("reference: %v", err)
	case !bytes.Equal(ref, outs[0]):
		o.fail("tcsb-experiments %s printed sha256 %s; the serial in-process run gives %s",
			strings.Join(cliArgs(req, cliWorkers), " "), sha(outs[0]), sha(ref))
	}

	k := hc.scale()
	var busy float64
	for _, w := range walls {
		busy += w
	}
	o.metrics = map[string]metric{
		"p50_ms":        {1000 * k * median(walls), "ms"},
		"ops_per_s":     {float64(len(walls)) / (k * busy), "1/s"},
		"cpu_ms_per_op": {1000 * k * median(cpus), "ms"},
		"peak_rss_mb":   {median(rss), "MB"},
		"setup_s":       {k * median(setup), "s"},
	}
	var digests []string
	for _, out := range outs {
		if out != nil {
			digests = append(digests, sha(out))
		}
	}
	o.info["ops"] = len(walls)
	o.info["stdout_sha256"] = digests
	o.info["raw_wall_s"] = walls
	o.info["raw_setup_s"] = setup
	o.info["probe_s"] = hc.probes
	return o, nil
}

// traceCLI replays world 0 of a CLI workload in process with spans,
// pass after pass until the window has passed, then checks the replay
// against the program: the same bytes, or for a timeline the same
// epoch digests.
func traceCLI(cfg config, wl workload, seed int64) (*outcome, error) {
	o := &outcome{info: map[string]any{}, rec: newRecorder()}
	req := wl.request(worldSeed(seed, 0))
	args := cliArgs(req, cliWorkers)
	req.Workers, req.Parallel = cliWorkers, cliWorkers // as the CLI's flags set them

	stop, err := startProfiles(cfg)
	if err != nil {
		return nil, err
	}
	hc := newHostClock()
	var first []byte
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.window; pass++ {
		var out []byte
		var err error
		hc.run(func() {
			o.rec.beginPass(fmt.Sprintf("pass%d", pass))
			out, err = tracedCLI(o.rec, req)
			o.rec.endPass()
		})
		o.attempted++
		switch {
		case err != nil:
			o.fail("traced pass %d: %v", pass, err)
		case first == nil:
			first = out
		case !bytes.Equal(out, first):
			o.fail("traced pass %d gave different bytes from pass 0", pass)
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}
	o.scale = hc.scale()
	o.info["probe_s"] = hc.probes

	c := runChild(filepath.Join(cfg.bin, "tcsb-experiments"), args...)
	o.attempted++
	want := c.stdout
	if c.err == nil && req.IsTimeline() {
		want, err = digestLines(c.stdout)
	}
	switch {
	case c.err != nil:
		o.fail("%v", c.err)
	case err != nil:
		o.fail("%v", err)
	case !bytes.Equal(first, want):
		o.fail("the traced replay does not reproduce tcsb-experiments %s", strings.Join(args, " "))
	}
	o.info["stdout_sha256"] = sha(c.stdout)
	if req.WhatIf != "" {
		o.info["pair_idle_s"] = pairIdle(normalized(o.rec.passes(), o.scale))
	}
	return o, nil
}

// digestLines extracts the digest column of a timeline run's
// timeline.digest table, one digest per line.
func digestLines(jsonl []byte) ([]byte, error) {
	rows, err := experiments.ParseJSONL(bytes.NewReader(jsonl))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, r := range rows {
		if r.Experiment != "timeline.digest" {
			continue
		}
		col := -1
		for i, c := range r.Table.Columns {
			if c == "digest" {
				col = i
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("timeline.digest has no digest column")
		}
		for _, row := range r.Table.Rows {
			fmt.Fprintln(&buf, row[col])
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("output has no timeline.digest table")
}
