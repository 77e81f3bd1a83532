package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcsb/internal/runcache"
)

// bootTimeout bounds how long a server may take to answer its first
// health check, and stopTimeout how long it may take to drain and exit.
const (
	bootTimeout = 30 * time.Second
	stopTimeout = 30 * time.Second
)

// server is one running tcsb-server child.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr tailWriter
	done   chan struct{} // closed once the process has exited and been reaped
	err    error         // the process's exit status, set before done closes
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer starts tcsb-server on archive and returns once its health
// check answers 200, with the time from exec to that answer.
func startServer(bin, archive string, client *http.Client) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serveWorkers),
		"-fleet", strconv.Itoa(serveFleet), "-archive-dir", archive)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	for {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("tcsb-server exited during boot: %v: %s", s.err, s.stderr.String())
		default:
		}
		if time.Since(start) > bootTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("tcsb-server did not answer /v1/healthz within %v: %s", bootTimeout, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to drain and exit, and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("tcsb-server did not exit within %v of SIGTERM", stopTimeout)
	}
	if s.err != nil {
		return fmt.Errorf("tcsb-server: %v: %s", s.err, s.stderr.String())
	}
	return nil
}

// kill ends the server at once and waits for it; for error paths.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from
// /proc. Unlike the ru_maxrss wait4 reports, it belongs to the process's
// own address space and never includes the benchmark's peak.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSecondsOf reads a live process's user+system time from /proc.
func cpuSecondsOf(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 12th and 13th of them, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// reply is one answered POST /v1/runs.
type reply struct {
	body    []byte
	label   string // X-Tcsb-Cache
	latency time.Duration
}

func post(client *http.Client, base string, body []byte) (reply, error) {
	start := time.Now()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("POST /v1/runs %s: %s: %s", body, resp.Status, bytes.TrimSpace(out))
	}
	return reply{body: out, label: resp.Header.Get("X-Tcsb-Cache"), latency: lat}, nil
}

func cacheStats(client *http.Client, base string) (runcache.Stats, error) {
	var st runcache.Stats
	resp, err := client.Get(base + "/v1/cache")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/cache: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
}

// closedLoop runs serveClients clients, each sending its next request
// only when the previous one has been answered, until next reports no
// more work. Operation i is handed to check with its reply.
func closedLoop(next func() (int, bool), send func(i int) (reply, error), check func(i int, r reply, err error)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				r, err := send(i)
				mu.Lock()
				check(i, r, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// runServe measures a serve workload:
//
//  1. a server on an empty archive computes serveFill distinct runs
//     (misses) and is stopped;
//  2. the server restarts setups times on that archive; each boot is
//     timed from exec to the first healthz 200 and must prime every run;
//  3. the last server serves the window: serve-hit repeats the archived
//     requests (hits), serve-miss sends new distinct ones (misses);
//  4. sampled cold responses are compared with tcsb-experiments' output.
func runServe(cfg config, wl workload, seed int64) (*outcome, error) {
	o := &outcome{info: map[string]any{}}
	bin := filepath.Join(cfg.bin, "tcsb-server")
	archive := filepath.Join(cfg.work, "archive")
	client := newClient()
	defer client.CloseIdleConnections()

	bodies := fillBodies(seed)
	fill := make([][]byte, serveFill)
	srv, _, err := startServer(bin, archive, client)
	if err != nil {
		return nil, err
	}
	var filled atomic.Int64
	next := func() (int, bool) {
		i := int(filled.Add(1)) - 1
		return i, i < serveFill
	}
	closedLoop(next, func(i int) (reply, error) { return post(client, srv.base, bodies[i]) },
		func(i int, r reply, err error) {
			o.attempted++
			switch {
			case err != nil:
				o.fail("fill %d: %v", i, err)
			case r.label != "miss":
				o.fail("fill %d: X-Tcsb-Cache %q, want miss", i, r.label)
			default:
				fill[i] = r.body
			}
		})
	client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	hc := newHostClock()
	var boots []float64
	for r := 0; r < setups; r++ {
		var srv *server
		var boot time.Duration
		hc.run(func() { srv, boot, err = startServer(bin, archive, client) })
		if err != nil {
			return nil, err
		}
		o.attempted++
		st, err := cacheStats(client, srv.base)
		switch {
		case err != nil:
			o.fail("restart %d: %v", r, err)
		case st.Primed != serveFill || st.Misses != 0:
			o.fail("restart %d: /v1/cache primed=%d misses=%d, want primed=%d misses=0", r, st.Primed, st.Misses, serveFill)
		default:
			boots = append(boots, boot.Seconds())
		}
		if r < setups-1 {
			client.CloseIdleConnections()
			if err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		if err := serveWindow(cfg, wl, seed, o, client, srv, hc, bodies, fill); err != nil {
			srv.kill()
			return nil, err
		}
	}
	o.metrics["setup_s"] = metric{hc.scale() * median(boots), "s"}
	o.info["raw_setup_s"] = boots
	o.info["probe_s"] = hc.probes

	// Cold responses must be the CLI's bytes for the same request.
	for _, i := range checkedFills {
		if fill[i] == nil {
			continue
		}
		c := runChild(filepath.Join(cfg.bin, "tcsb-experiments"), cliArgs(serveRequest(seed, i), 1)...)
		o.attempted++
		switch {
		case c.err != nil:
			o.fail("%v", c.err)
		case !bytes.Equal(c.stdout, fill[i]):
			o.fail("cold response to %s differs from tcsb-experiments' output", bodies[i])
		}
	}
	o.info["fill0_sha256"] = sha(fill[0])
	return o, nil
}

// segment is how long the clients send before they pause for a host
// probe.
const segment = 2 * time.Second

// serveWindow drives the window on the last restarted server, in
// segments with a host probe after each, then stops the server and fills
// in the end-to-end metrics but setup_s, normalized by hc's probes.
func serveWindow(cfg config, wl workload, seed int64, o *outcome, client *http.Client, srv *server,
	hc *hostClock, bodies, fill [][]byte) error {

	pid := srv.cmd.Process.Pid
	want := "miss"
	if wl.hits {
		want = "hit"
	}
	send := func(i int) (reply, error) {
		if wl.hits {
			return post(client, srv.base, bodies[i%serveFill])
		}
		return post(client, srv.base, requestBody(serveRequest(seed, serveFill+i)))
	}
	var lats []float64
	var busy, cpu float64 // seconds of load and of server CPU
	sent := 0
	start := time.Now()
	for seg := 0; seg == 0 || time.Since(start) < cfg.window; seg++ {
		var err error
		hc.run(func() {
			var cpu0, cpu1 float64
			if cpu0, err = cpuSecondsOf(pid); err != nil {
				return
			}
			var issued atomic.Int64
			segStart := time.Now()
			next := func() (int, bool) {
				if time.Since(segStart) >= segment {
					return 0, false
				}
				return sent + int(issued.Add(1)) - 1, true
			}
			closedLoop(next, send, func(i int, r reply, err error) {
				o.attempted++
				switch {
				case err != nil:
					o.fail("request %d: %v", i, err)
				case r.label != want:
					o.fail("request %d: X-Tcsb-Cache %q, want %s", i, r.label, want)
				case wl.hits && !bytes.Equal(r.body, fill[i%serveFill]):
					o.fail("request %d: hit body differs from the cold body", i)
				default:
					lats = append(lats, r.latency.Seconds()*1000)
				}
			})
			busy += time.Since(segStart).Seconds()
			sent += int(issued.Load())
			if cpu1, err = cpuSecondsOf(pid); err != nil {
				return
			}
			cpu += cpu1 - cpu0
		})
		if err != nil {
			return err
		}
	}

	st, err := cacheStats(client, srv.base)
	o.attempted++
	switch {
	case err != nil:
		o.fail("%v", err)
	case wl.hits && (st.Hits != uint64(sent) || st.Misses != 0):
		o.fail("/v1/cache hits=%d misses=%d after %d repeated requests", st.Hits, st.Misses, sent)
	case !wl.hits && st.Misses != uint64(sent):
		o.fail("/v1/cache misses=%d after %d distinct requests", st.Misses, sent)
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return err
	}
	if len(lats) == 0 {
		return errors.New("no request of the window succeeded")
	}
	k := hc.scale()
	o.metrics = map[string]metric{
		"p50_ms":        {k * median(lats), "ms"},
		"ops_per_s":     {float64(len(lats)) / (k * busy), "1/s"},
		"cpu_ms_per_op": {1000 * k * cpu / float64(len(lats)), "ms"},
		"peak_rss_mb":   {rss, "MB"},
	}
	o.info["ops"] = len(lats)
	o.info["cache"] = st
	o.info["raw_p50_ms"] = median(lats)
	if p, ok := tailPercentile(len(lats)); ok {
		o.info[fmt.Sprintf("p%g_ms", p)] = k * percentile(lats, p)
	}
	return nil
}

// traceServe replays a serve workload's request path in process with
// spans, pass after pass until the window has passed. A pass computes
// and archives the serveFill runs, serve-hit then replays tracedHits
// repeated requests, and the pass ends with the boot path's priming of
// a fresh cache from the archive. A live server's cold responses must
// equal the replay's.
func traceServe(cfg config, wl workload, seed int64) (*outcome, error) {
	o := &outcome{info: map[string]any{}, rec: newRecorder()}
	bodies := fillBodies(seed)
	stop, err := startProfiles(cfg)
	if err != nil {
		return nil, err
	}
	hc := newHostClock()
	var first [][]byte
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.window; pass++ {
		archive := filepath.Join(cfg.work, fmt.Sprintf("trace%d", pass))
		var outs [][]byte
		hc.run(func() {
			o.rec.beginPass(fmt.Sprintf("pass%d", pass))
			outs = replayPass(o, wl, pass, bodies, archive, first)
			o.rec.endPass()
		})
		if first == nil {
			first = outs
		}
		if err := os.RemoveAll(archive); err != nil {
			o.fail("%v", err)
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}
	o.scale = hc.scale()
	o.info["probe_s"] = hc.probes

	client := newClient()
	defer client.CloseIdleConnections()
	srv, _, err := startServer(filepath.Join(cfg.bin, "tcsb-server"), filepath.Join(cfg.work, "archive"), client)
	if err != nil {
		return nil, err
	}
	for _, i := range checkedFills {
		r, err := post(client, srv.base, bodies[i])
		o.attempted++
		switch {
		case err != nil:
			o.fail("%v", err)
		case !bytes.Equal(r.body, first[i]):
			o.fail("the traced replay does not reproduce tcsb-server's response to %s", bodies[i])
		}
	}
	client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	o.info["fill0_sha256"] = sha(first[0])
	return o, nil
}

// replayPass is one traced serve pass: the serveFill misses, for
// serve-hit tracedHits repeats, then the boot path's priming. first,
// when not nil, holds the previous passes' responses, which every pass
// must reproduce. It returns this pass's cold responses.
func replayPass(o *outcome, wl workload, pass int, bodies [][]byte, archive string, first [][]byte) [][]byte {
	rp := newServeReplay(o.rec, servePerRun, archive)
	outs := make([][]byte, serveFill)
	for i, b := range bodies {
		o.rec.setRun(fmt.Sprintf("pass%d/fill%d", pass, i))
		out, hit, err := rp.post(b)
		o.attempted++
		switch {
		case err != nil:
			o.fail("replayed fill %d: %v", i, err)
		case hit:
			o.fail("replayed fill %d was a cache hit", i)
		case first != nil && !bytes.Equal(out, first[i]):
			o.fail("replayed fill %d differs between passes", i)
		}
		outs[i] = out
	}
	if wl.hits {
		o.rec.setRun(fmt.Sprintf("pass%d/hits", pass))
		for j := 0; j < tracedHits; j++ {
			out, hit, err := rp.post(bodies[j%serveFill])
			o.attempted++
			if err != nil || !hit || !bytes.Equal(out, outs[j%serveFill]) {
				o.fail("replayed hit %d: hit=%v err=%v", j, hit, err)
			}
		}
	}
	o.rec.setRun(fmt.Sprintf("pass%d/boot", pass))
	primed, err := rp.prime()
	o.attempted++
	if err != nil || primed != serveFill {
		o.fail("replayed boot primed %d runs (err %v), want %d", primed, err, serveFill)
	}
	return outs
}
