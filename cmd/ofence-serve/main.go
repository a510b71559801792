// Command ofence-serve runs the OFence analysis as an HTTP/JSON daemon.
//
//	ofence-serve -addr :8080 -workers 4
//
// Endpoints:
//
//	POST /v1/analyze   {"files": {"drivers/foo.c": "..."}, "options": {...}}
//	GET  /v1/jobs/{id} poll an asynchronous job
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      Prometheus text metrics
//
// With -pprof-addr a second listener serves the net/http/pprof profiling
// endpoints (/debug/pprof/...) on its own address, kept off the API
// listener so profiling is never exposed to API clients by accident.
//
// With -store disk -store-dir DIR the result cache is backed by a
// crash-consistent content-addressed store on disk, so cached results
// survive restarts; -store memory adds a byte-bounded in-memory blob tier
// instead.
//
// The service is a coordinator: -workers in-process analysis slots lease
// its tasks by direct call. With -fleet-token the worker wire protocol is
// mounted too, and ofence-worker processes carrying the token join;
// -workers -1 leaves all analysis to them.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// queued and running jobs finish (up to -drain), then the process exits.
//
// See docs/SERVICE.md for the API reference and the worker protocol, and
// docs/OBSERVABILITY.md for the metrics and profiling guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ofence/internal/rescache"
	"ofence/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "in-process analysis slots (0 = GOMAXPROCS, negative = none: external workers only)")
		queue    = flag.Int("queue", 64, "queued-job bound; beyond it POST /v1/analyze returns 429")
		cacheN   = flag.Int("cache", 256, "result cache capacity (entries)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-attempt analysis timeout; a task is retried up to 3 attempts")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
		maxBytes = flag.Int("max-source-bytes", 8<<20, "total source size bound per request")
		warmN    = flag.Int("warm-lineages", 0, "warm projects kept for incremental re-analysis, one per source-set lineage (0 = default 32, negative = disabled)")
		pprofA   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		storeK   = flag.String("store", "", "result store backend behind the result cache: memory, disk, or empty for none")
		storeDir = flag.String("store-dir", "", "disk store directory (required with -store disk)")
		storeMax = flag.Int64("store-max-bytes", 0, "artifact store byte budget; oldest blobs are evicted past it (0 = unbounded disk, 256MiB memory default)")
		token    = flag.String("fleet-token", "", "shared secret external workers present; mounts /v1/fleet/* (empty = no external workers)")
	)
	flag.Parse()
	store, err := openStore(*storeK, *storeDir, *storeMax)
	if err != nil {
		log.Fatal(err)
	}
	if store != nil {
		defer store.Close()
	}
	if err := run(*addr, service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheN,
		JobTimeout:     *timeout,
		MaxSourceBytes: *maxBytes,
		WarmLineages:   *warmN,
		Store:          store,
		AuthToken:      *token,
	}, *drain, *pprofA); err != nil {
		log.Fatal(err)
	}
}

// openStore maps the -store/-store-dir/-store-max-bytes flags onto a
// backend.
func openStore(kind, dir string, maxBytes int64) (rescache.ArtifactStore, error) {
	switch kind {
	case "":
		return nil, nil
	case "memory":
		return rescache.NewMemStore(maxBytes), nil
	case "disk":
		if dir == "" {
			return nil, fmt.Errorf("-store disk requires -store-dir")
		}
		return rescache.OpenDiskStoreCapped(dir, maxBytes)
	default:
		return nil, fmt.Errorf("unknown -store backend %q (want memory or disk)", kind)
	}
}

// pprofHandler builds the profiling mux on a dedicated ServeMux so nothing
// leaks onto http.DefaultServeMux or the API listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(addr string, cfg service.Config, drain time.Duration, pprofAddr string) error {
	svc := service.New(cfg)
	srv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ofence-serve listening on %s", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	var pprofSrv *http.Server
	if pprofAddr != "" {
		pprofSrv = &http.Server{
			Addr:              pprofAddr,
			Handler:           pprofHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("pprof listening on %s", pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- fmt.Errorf("pprof listener: %w", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("received %s, draining (budget %s)", s, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()

	// Drain the service FIRST, while both listeners stay up: new
	// submissions are rejected with 503 but /metrics, /healthz and the
	// pprof endpoints remain scrapable until every in-flight job has
	// finished — a scrape during the drain must never hit a closed
	// listener. Only then do the listeners shut down.
	drainErr := svc.Close(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(ctx); err != nil {
			log.Printf("pprof shutdown: %v", err)
		}
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete, in-flight jobs canceled: %w", drainErr)
	}
	log.Print("drained cleanly")
	return nil
}
