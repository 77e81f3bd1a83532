// Command tcsb-server is the long-running campaign service: the
// experiment registry and the simulation engine behind an HTTP/JSON
// API, with a content-addressed run cache in front of the fleet.
//
//	tcsb-server -addr :8080 -workers 8 -fleet 2 -cache-entries 256
//
// Endpoints (all under /v1):
//
//	GET  /v1/healthz        liveness + fleet shape
//	GET  /v1/experiments    the experiment catalog (JSON)
//	GET  /v1/experiments/N  one catalog entry
//	GET  /v1/interventions  the counterfactual intervention registry
//	GET  /v1/presets        scale.*, net.* and timeline.* preset families
//	GET  /v1/cache          run-cache counters
//	POST /v1/runs           run (or serve from cache) one campaign; NDJSON
//	POST /v1/sweeps         expand a parameter grid and run the fleet; NDJSON
//	GET  /v1/analyze        longitudinal report over the -archive-dir run archive
//	POST /v1/analyze        same, with an expectations document to alert against
//
// -archive-dir makes the cache durable: every fill persists as a run
// archive (<key>.jsonl plus a manifest of the canonical request), the
// boot path primes the cache from it (a restarted server serves prior
// runs as hits, misses stay 0; an unreadable entry is logged and
// skipped), and /v1/analyze runs the longitudinal analyzer
// (internal/analyze) over it.
//
// Profiling: -pprof ADDR (e.g. -pprof localhost:6060) serves the
// standard net/http/pprof endpoints (/debug/pprof/...) on a separate
// listener, so heap and CPU profiles of a live fleet can be captured
// without exposing the profiler on the API address. Off by default.
//
// Determinism makes the cache exact: a run's rendered output is a pure
// function of its canonical request, so a warm key returns bytes
// identical to a fresh campaign. Responses carry X-Tcsb-Run-Key (the
// content address) and X-Tcsb-Cache (hit|miss).
//
// Invalid flags exit 2; invalid requests are HTTP 4xx; no input —
// flag or request body — can panic the process. SIGINT/SIGTERM drain
// in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcsb-server: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "global campaign worker budget, split across the fleet")
	fleet := flag.Int("fleet", 2, "maximum concurrently executing campaigns")
	cacheEntries := flag.Int("cache-entries", 256, "run-cache capacity in stored runs (0 = unbounded)")
	archiveDir := flag.String("archive-dir", "", "run archive directory: persist every cache fill (<key>.jsonl + manifest), prime the cache from it at boot, and enable GET|POST /v1/analyze; empty = disabled")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = disabled")
	flag.Parse()

	// Non-positive shape flags are configuration errors, not requests
	// for a default: exit 2 with a diagnostic, same contract as the CLIs.
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "tcsb-server: -workers must be positive (got %d)\n", *workers)
		os.Exit(2)
	}
	if *fleet <= 0 {
		fmt.Fprintf(os.Stderr, "tcsb-server: -fleet must be positive (got %d)\n", *fleet)
		os.Exit(2)
	}
	if *cacheEntries < 0 {
		fmt.Fprintf(os.Stderr, "tcsb-server: -cache-entries must be >= 0 (got %d)\n", *cacheEntries)
		os.Exit(2)
	}

	s := newServer(*fleet, *workers, *cacheEntries, *archiveDir, log.Printf)
	if *archiveDir != "" {
		// Rehydrate the run cache from the archive: a restart serves
		// previously computed campaigns as hits from the first request. A
		// missing directory just means nothing is archived yet; the first
		// cache fill creates it.
		if _, err := os.Stat(*archiveDir); err == nil {
			if _, _, err := s.primeFromArchive(); err != nil {
				fmt.Fprintf(os.Stderr, "tcsb-server: -archive-dir %s: %v\n", *archiveDir, err)
				os.Exit(2)
			}
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *pprofAddr != "" {
		// The profiler gets its own mux and listener: the API handler
		// never exposes /debug/pprof, and binding the profiler to
		// localhost keeps it off the service address entirely.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
		log.Printf("pprof on %s", *pprofAddr)
	}
	log.Printf("listening on %s (fleet=%d, workers/run=%d, cache=%d entries)",
		*addr, *fleet, s.perRun, *cacheEntries)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight campaigns finish.
	log.Printf("shutting down; cache %s", s.cache.Stats())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
}
