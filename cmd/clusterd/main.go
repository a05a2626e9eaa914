// Command clusterd serves the simulation engine over HTTP: a long-running
// process wrapping one shared engine and a tiered (memory-over-disk)
// result store. Submitted jobs dedup against everything the store has
// ever computed, so the daemon answers repeated workloads without
// simulating.
//
// Usage:
//
//	clusterd -addr :8080 -cachedir /var/cache/clusterd
//	clusterd -addr :8080 -cachedir /var/cache/clusterd -token s3cret
//
//	curl -s localhost:8080/v1/jobs -d '{"simpoint":"gzip-1","setup":{"kind":"VC","num_vc":2,"clusters":2},"opts":{"num_uops":20000}}'
//	curl -N localhost:8080/v1/jobs/<id from submit>/stream
//	curl -G --data-urlencode "key=<key from submit>" localhost:8080/v1/results
//	curl -s localhost:8080/v1/trace/<trace id from submit>
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics          # Prometheus text format
//
// The typed Go SDK for this API lives in clustersim/client; steerbench
// -remote drives whole experiment suites against a clusterd instance.
// Completed submissions are GC'd by count (-retention) and age (-subttl):
// one completed longer than -subttl ago expires at the next submission
// completion or lookup, so no background sweeper runs. Their results
// remain fetchable by content key either way.
//
// With -coordinator the daemon additionally serves the fleet membership
// register (GET/POST /v1/ring): an epoch-guarded compare-and-swap view
// of which workers are alive, draining, dead, or removed, which N
// concurrent fleet runners converge on so they shard identically. A
// coordinator is an ordinary worker too — it can serve jobs alongside
// the register, or run with -parallel 1 as a dedicated control-plane
// node.
//
// Every job gets a trace ID (returned in the submit ack, seedable via
// the Clustersim-Trace-Id header); GET /v1/trace/{id} returns its
// per-stage span tree, -tracecap bounds how many completed traces stay
// queryable. Operational output is structured logging via log/slog
// (-log-level, -log-format); -debug-addr serves net/http/pprof on a
// separate listener for live profiling.
//
// SIGINT/SIGTERM cancels in-flight simulations and shuts down cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clustersim/internal/admission"
	"clustersim/internal/engine"
	"clustersim/internal/faultinject"
	"clustersim/internal/obs"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// newLogger builds the process logger from the -log-level / -log-format
// flags. Unknown values fall back to info/text rather than refusing to
// start — logging must never keep the daemon down.
func newLogger(level, format string) *slog.Logger {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if strings.ToLower(format) == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cachedir", "", "persist results in this directory (empty = memory only)")
		cacheMax  = flag.Int64("cachemax", 0, "bound the disk store to this many bytes (0 = unbounded)")
		memMax    = flag.Int64("memmax", 256<<20, "bound the in-memory result tier to this many bytes")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = all cores)")
		subTTL    = flag.Duration("subttl", time.Hour, "GC completed submissions after this long (0 = count-based retention only)")
		retention = flag.Int("retention", 0, "completed submissions kept queryable by id (0 = server default; results stay fetchable by key regardless)")
		token     = flag.String("token", "", "require this bearer token on every request (empty = no auth; /healthz stays open)")
		coord     = flag.Bool("coordinator", false, "serve the fleet membership register on /v1/ring (for fleets sharing one placement view)")
		traceCap  = flag.Int("tracecap", 4096, "completed job traces kept queryable on /v1/trace/{id} (0 disables tracing)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error (access log rides at debug)")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty = disabled)")
		rate      = flag.Float64("rate", 0, "per-tenant admitted jobs per second (0 = unlimited)")
		burst     = flag.Float64("burst", 0, "per-tenant burst allowance in jobs (0 = max(rate, 1))")
		quota     = flag.Int("quota", 0, "per-tenant in-flight job quota; larger batches 429 (0 = unlimited)")
		chaos     = flag.String("chaos", "", "fault-injection schedule for resilience testing, e.g. \"seed=1,latency=5ms,error=0.05\" (/healthz and /metrics stay exempt)")
	)
	flag.Parse()

	log := newLogger(*logLevel, *logFormat)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var st store.Store = store.NewMemory(*memMax)
	if *cacheDir != "" {
		disk, err := store.OpenDisk(*cacheDir, *cacheMax)
		if err != nil {
			log.Error("opening disk store", "err", err)
			os.Exit(1)
		}
		st = store.NewTiered(st, disk)
		log.Info("result store opened", "dir", disk.Dir(), "blobs", disk.Stats().Entries)
	}
	var tracer *obs.Tracer
	if *traceCap > 0 {
		tracer = obs.NewTracer(*traceCap)
	}
	eng := engine.New(engine.Options{Parallelism: *par, ResultStore: st, Tracer: tracer})

	svc := service.New(ctx, eng, st)
	svc.SetTTL(*subTTL)
	if *retention > 0 {
		svc.SetRetention(*retention)
	}
	svc.SetToken(*token)
	svc.SetLogger(log)
	if *coord {
		svc.EnableCoordinator()
		log.Info("coordinator mode: serving the fleet ring register")
	}
	if *rate > 0 || *quota > 0 {
		svc.SetAdmission(admission.New(admission.Limits{Rate: *rate, Burst: *burst, MaxInFlight: *quota}))
		log.Info("admission control enabled", "rate", *rate, "burst", *burst, "quota", *quota)
	}
	var handler http.Handler = svc
	if *chaos != "" {
		var err error
		if handler, err = chaosHandler(svc, *chaos); err != nil {
			log.Error("bad -chaos schedule", "err", err)
			os.Exit(1)
		}
		log.Warn("fault injection enabled — this daemon will misbehave on purpose", "schedule", *chaos)
	}
	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux (the blank import); a
		// separate listener keeps the profiling surface off the API port,
		// so -token auth and pprof exposure stay independent decisions.
		go func() {
			log.Info("pprof debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Error("debug listener failed", "err", err)
			}
		}()
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "parallel", eng.Parallelism(), "tracecap", *traceCap)

	select {
	case err := <-errc:
		log.Error("server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown", "err", err)
	}
}

// chaosHandler wraps h in the -chaos fault schedule. Liveness probes
// (/healthz) and scrapes (/metrics) stay exempt: a daemon that misbehaves
// on purpose must still say whether it is alive and what it has done.
func chaosHandler(h http.Handler, schedule string) (http.Handler, error) {
	cfg, err := faultinject.Parse(schedule)
	if err != nil {
		return nil, err
	}
	return faultinject.New(cfg).Middleware(h, "/metrics"), nil
}
