// Command tscfpd is the floorplanning-as-a-service daemon: it accepts JSON
// job submissions over HTTP (single runs and sweep grids), executes them on
// a bounded worker pool over the tscfp flow, streams per-stage progress as
// server-sent events, and dedupes identical submissions through a
// content-addressed result store. See internal/server for the REST surface
// and docs/ARCHITECTURE.md for queue/store/drain semantics.
//
// Configuration is flags-first with env fallbacks (flag wins), so the same
// binary runs standalone or as a k8s Deployment:
//
//	-addr            TSCFPD_ADDR, or ":"+PORT     listen address (default :8080)
//	-workers         TSCFPD_WORKERS               job worker pool size (default GOMAXPROCS)
//	-queue           TSCFPD_QUEUE                 admission queue bound (default 256)
//	-max-body        TSCFPD_MAX_BODY              submission body cap in bytes (default 8 MiB)
//	-drain-timeout   TSCFPD_DRAIN_TIMEOUT         grace for in-flight jobs on SIGTERM (default 30s)
//	-data-dir        TSCFPD_DATA_DIR              durable artifact registry directory
//	                                              (default "": a temporary directory,
//	                                              removed on exit)
//	-max-store-bytes TSCFPD_MAX_STORE_BYTES       on-disk artifact payload bound (0 = unbounded)
//	-max-cache-bytes TSCFPD_MAX_CACHE_BYTES       in-RAM payload cache bound (default 64 MiB)
//	-retention       TSCFPD_RETENTION             evict artifacts / terminal job records idle
//	                                              longer than this (0 = keep)
//	-max-jobs        TSCFPD_MAX_JOBS              job table bound, terminal records GC'd
//	                                              oldest-first (default 4096)
//
// Every artifact (results, sweep manifests) is written atomically under its
// content address with a lineage sidecar, into a registry bounded by
// -max-store-bytes, -max-cache-bytes and -retention. A dedupe hit writes
// nothing: its hit count and access time stay in memory until the
// once-a-minute flush (which also runs the retention sweep) or the drain,
// so a crash loses at most a minute of that access metadata. With -data-dir
// set, a restarted daemon rescans the directory, quarantines corrupt files,
// and serves prior results as dedupe hits — byte-identical, original
// lineage, no recompute. Without it the registry lives in a fresh temporary
// directory that is removed after drain. Each built-in design is
// synthesized and hashed once per process, on its first submission by name.
//
// SIGTERM/SIGINT trigger graceful drain: /readyz flips to 503, admission
// stops, in-flight jobs get the drain timeout to finish before their
// contexts are cancelled, the registry flushes its hit counts, then the
// listener shuts down.
//
// Quick start:
//
//	tscfpd -data-dir /var/lib/tscfpd &
//	curl -s localhost:8080/v1/jobs -d '{"benchmark":"n100","options":{"seed":1,"iterations":500}}'
//	curl -N localhost:8080/v1/jobs/j-000001/events     # follow SSE progress
//	curl -s localhost:8080/v1/jobs/j-000001/result     # fetch the Result JSON
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tscfpd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGTERM/SIGINT and a completed drain. It returns, rather
// than exits, on failure so the deferred removal of a temporary registry
// directory runs on every path.
func run() error {
	var (
		addr         = flag.String("addr", envStr("TSCFPD_ADDR", envPort(":8080")), "listen address")
		workers      = flag.Int("workers", envInt("TSCFPD_WORKERS", 0), "job worker pool size (0 = one per CPU)")
		queueCap     = flag.Int("queue", envInt("TSCFPD_QUEUE", 256), "admission queue bound (queued jobs)")
		maxBody      = flag.Int64("max-body", envInt64("TSCFPD_MAX_BODY", 8<<20), "max submission body size in bytes")
		drainTimeout = flag.Duration("drain-timeout", envDuration("TSCFPD_DRAIN_TIMEOUT", 30*time.Second), "grace period for in-flight jobs on shutdown")
		dataDir      = flag.String("data-dir", envStr("TSCFPD_DATA_DIR", ""), "durable artifact registry directory (empty = a temporary directory, removed on exit)")
		maxStore     = flag.Int64("max-store-bytes", envInt64("TSCFPD_MAX_STORE_BYTES", 0), "on-disk artifact payload bound (0 = unbounded)")
		maxCache     = flag.Int64("max-cache-bytes", envInt64("TSCFPD_MAX_CACHE_BYTES", 64<<20), "in-RAM artifact payload cache bound")
		retention    = flag.Duration("retention", envDuration("TSCFPD_RETENTION", 0), "evict artifacts and terminal job records idle longer than this (0 = keep)")
		maxJobs      = flag.Int("max-jobs", envInt("TSCFPD_MAX_JOBS", 4096), "job table bound (terminal records GC'd oldest-first)")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("tscfpd " + version.String())
		return nil
	}

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tscfpd-")
		if err != nil {
			return fmt.Errorf("create registry directory: %w", err)
		}
		defer func() {
			if err := os.RemoveAll(tmp); err != nil {
				log.Printf("remove registry directory: %v", err)
			}
		}()
		log.Printf("no -data-dir: registry in %s, removed on exit", tmp)
		dir = tmp
	}
	reg, err := registry.Open(registry.Config{
		Dir:           dir,
		MaxStoreBytes: *maxStore,
		MaxCacheBytes: *maxCache,
		MaxAge:        *retention,
	})
	if err != nil {
		return fmt.Errorf("open registry: %w", err)
	}
	st := reg.Stats()
	log.Printf("registry %s: %d artifacts (%d bytes) rebuilt, %d quarantined",
		dir, st.Artifacts, st.DiskBytes, st.Quarantined)

	srv := server.New(server.Config{
		Workers:      *workers,
		QueueCap:     *queueCap,
		MaxBodyBytes: *maxBody,
		Store:        reg,
		MaxJobs:      *maxJobs,
		JobRetention: *retention,
	})
	srv.Start()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Each minute: the retention sweep, so an idle daemon still ages
	// artifacts and terminal job records out (Put and register enforce the
	// bounds on every write; this covers the no-traffic case), then a flush
	// of the sidecars dedupe hits dirtied. Drain flushes once more. The
	// ticker exits with ctx and is waited for, so no flush writes into a
	// temporary registry directory while it is being removed.
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		t := time.NewTicker(time.Minute)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				reg.EnforceRetention()
				srv.GC()
				if err := reg.Flush(); err != nil {
					log.Printf("flush registry: %v", err)
				}
			}
		}
	}()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("shutdown signal: draining (grace %s)", *drainTimeout)
		srv.Drain(*drainTimeout)
		// The workers are gone; give straggling readers a moment to finish
		// streaming before the listener closes.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()

	log.Printf("listening on %s (workers=%d queue=%d)", *addr, *workers, *queueCap)
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	<-tickerDone
	log.Print("drained, exiting")
	return nil
}

// envStr reads a string env fallback for a flag default.
func envStr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// envPort maps the conventional PORT variable (knative/k8s serving) to a
// listen address.
func envPort(def string) string {
	if p := os.Getenv("PORT"); p != "" {
		return ":" + p
	}
	return def
}

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
		log.Fatalf("%s: not an integer: %q", key, v)
	}
	return def
}

func envInt64(key string, def int64) int64 {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
		log.Fatalf("%s: not an integer: %q", key, v)
	}
	return def
}

func envDuration(key string, def time.Duration) time.Duration {
	if v := os.Getenv(key); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
		log.Fatalf("%s: not a duration: %q", key, v)
	}
	return def
}
