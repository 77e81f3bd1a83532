// Command tcsb-bench is the repository's benchmark. One invocation
// measures one workload for a fixed window and prints, as the last line
// of standard output, one JSON object with the run's correctness, its
// attempted and failed operations, and its metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 1 \
//	    --trace-out trace.json --cpuprofile cpu.pprof
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// bench/run.sh builds tcsb-experiments, tcsb-server and this command from
// the source tree and then runs it from the repository root. The
// end-to-end metrics come from those programs run as child processes
// with tracing off; the per-layer metrics come from traced in-process
// replays of the same work (drivers.go). See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"tcsb/internal/counterfactual"
	"tcsb/internal/experiments"
	"tcsb/internal/scenario"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it: the printed result plus the
// run's identity and everything measured that the result line omits.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Result   result         `json:"result"`
	Info     map[string]any `json:"info"`
}

// config is what one run needs besides the workload and seed.
type config struct {
	bin, work  string // built programs; scratch space (servers' archives)
	self       string // this executable, for set-up children
	window     time.Duration
	cpuProfile string
	memProfile string
}

// outcome is what a workload runner hands back.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
	rec               *recorder // the traced run's spans, nil untraced
	// scale is the traced run's host-speed factor (see probe.go).
	scale float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "tcsb-bench: FAIL: "+format+"\n", args...)
}

func main() { os.Exit(run()) }

// run is the command; it returns the exit status: 0 when the run is
// correct, 1 when an output check failed (the result is still printed),
// 2 when the run could not be made (nothing is printed on stdout).
func run() int {
	workloadName := flag.String("workload", "", "workload to run (paper, whatif, timeline, serve-miss, serve-hit)")
	seed := flag.Int64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := flag.Float64("seconds", 15, "measurement window in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from the programs; 1: per-layer metrics from traced replays")
	bin := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built tcsb-experiments and tcsb-server")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for server archives (emptied before and after the run)")
	out := flag.String("out", "", "append this run's full record as one JSON line to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1: write every span to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "with -trace 1: write a CPU profile of the traced replays")
	memProfile := flag.String("memprofile", "", "with -trace 1: write a heap profile after the traced replays")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds, for -compare")
	buildWorld := flag.Bool("build-world", false, "set-up child: build the workload's world(s) for -seed and exit")
	launcherMode := flag.Bool("launcher", false, "launcher child: run the programs the benchmark measures (see launcher.go)")
	flag.Parse()

	if *launcherMode {
		if err := serveLaunches(os.Stdin, os.Stdout); err != nil {
			return abort("launcher: %v", err)
		}
		return 0
	}

	if *compare {
		if flag.NArg() != 2 {
			return abort("-compare takes two files: parent.jsonl change.jsonl")
		}
		bad, err := runCompare(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return abort("%v", err)
		}
		if bad {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		return abort("unexpected arguments %q", flag.Args())
	}
	wl, err := lookupWorkload(*workloadName)
	if err != nil {
		return abort("%v", err)
	}
	if *buildWorld {
		if err := buildWorlds(wl, *seed); err != nil {
			return abort("%v", err)
		}
		return 0
	}
	if *seconds <= 0 || *traceMode < 0 || *traceMode > 1 {
		return abort("-seconds must be positive and -trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return abort("%v", err)
	}
	cfg := config{
		bin: *bin, work: *work, self: self,
		window:     time.Duration(*seconds * float64(time.Second)),
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}
	for _, prog := range []string{"tcsb-experiments", "tcsb-server"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, prog)); err != nil {
			return abort("%v (bench/run.sh builds the programs)", err)
		}
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return abort("%v", err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return abort("%v", err)
	}
	defer os.RemoveAll(cfg.work)

	traced := *traceMode == 1
	var o *outcome
	switch {
	case wl.serve && traced:
		o, err = traceServe(cfg, wl, *seed)
	case wl.serve:
		o, err = runServe(cfg, wl, *seed)
	case traced:
		o, err = traceCLI(cfg, wl, *seed)
	default:
		var l *launcher
		if l, err = startLauncher(cfg.self, cfg.work); err != nil {
			return abort("%v", err)
		}
		o, err = runCLI(cfg, l, wl, *seed)
		if cerr := l.close(); err == nil && cerr != nil {
			err = fmt.Errorf("launcher: %w", cerr)
		}
	}
	if err != nil {
		return abort("%s: %v", wl.name, err)
	}
	if traced {
		o.metrics, o.info["layers"] = layerMetrics(o)
		if *traceOut != "" {
			if err := o.rec.writeSpans(*traceOut); err != nil {
				return abort("%v", err)
			}
		}
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	if *out != "" {
		rec := record{Workload: wl.name, Seed: *seed, Trace: traced, Seconds: *seconds, Result: res, Info: o.info}
		if err := appendJSONLine(*out, rec); err != nil {
			return abort("%v", err)
		}
	}
	printSummary(wl.name, res, o.info)
	line, err := json.Marshal(res)
	if err != nil {
		return abort("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// abort reports why a run could not be made and returns exit status 2.
func abort(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "tcsb-bench: "+format+"\n", args...)
	return 2
}

// buildWorlds is the set-up child's work: resolve the workload's request
// and build the world(s) its campaign starts from.
func buildWorlds(wl workload, seed int64) error {
	if wl.serve {
		return errors.New("-build-world applies to CLI workloads")
	}
	res, err := experiments.Resolve(wl.request(seed))
	if err != nil {
		return err
	}
	scenario.NewWorld(res.Cfg)
	if res.Mode == experiments.ModeDelta {
		counterfactual.BuildWorld(res.Cfg, res.Interventions)
	}
	return nil
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary writes the run's metrics and per-layer table to stderr.
func printSummary(name string, res result, info map[string]any) {
	fmt.Fprintf(os.Stderr, "tcsb-bench: %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	if rows, ok := info["layers"].([]layerRow); ok {
		fmt.Fprintf(os.Stderr, "  %-22s %10s %7s %10s %10s %8s %10s\n", "layer (median pass)", "wall_s", "share", "cpu_s", "alloc_mb", "calls", "rpcs")
		for _, r := range rows {
			fmt.Fprintf(os.Stderr, "  %-22s %10.4f %6.1f%% %10.4f %10.1f %8d %10d\n", r.Name, r.Wall, r.Share*100, r.CPU, r.AllocMB, r.Calls, r.RPCs)
		}
	}
}

// startProfiles starts the -cpuprofile of a traced run; the returned
// function stops it and writes the -memprofile.
func startProfiles(cfg config) (func() error, error) {
	var cpuFile *os.File
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if cfg.memProfile == "" {
			return nil
		}
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
