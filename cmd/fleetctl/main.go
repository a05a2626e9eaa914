// Command fleetctl operates a clusterd fleet's control plane: inspect
// membership, drain a worker out of the fleet without losing cache
// affinity, scale up with a pre-warmed newcomer, and observe the fleet
// live — per-worker latency percentiles by route (top) and per-job span
// trees (trace).
//
// Usage:
//
//	fleetctl -workers http://h1:8080,http://h2:8080 status
//	fleetctl -workers http://h1:8080,http://h2:8080 drain http://h2:8080
//	fleetctl -workers http://h1:8080 add http://h3:8080
//	fleetctl -workers http://h1:8080,http://h2:8080 top
//	fleetctl -workers http://h1:8080,http://h2:8080 trace <trace-id>
//	fleetctl -workers ... -coordinator http://coord:8080 drain http://h2:8080
//
// drain migrates every result blob the departing worker holds to its
// consistent-hash successors before removing it, so the survivors
// inherit its key range warm and nothing re-simulates. add health-checks
// the newcomer and backfills the key ranges it will steal from their
// current owners before announcing it. Worker health is not a command:
// each fleet runner keeps its own circuit per worker and re-admits a
// recovered one by itself (steerbench -readmit sets the cooldown).
//
// top and trace are read-only and tolerate down workers: top prints
// p50/p99 per route for every worker that answers (plus the fleet-wide
// merge), and trace asks each worker in turn for the span tree until
// one of them — the job's owner — has it.
//
// With -coordinator, every transition is compare-and-swapped through the
// shared ring register (a clusterd started with -coordinator), so fleet
// runners pointing at the same register observe the change on their next
// batch — drain a worker here while steerbench runs elsewhere, and the
// run routes around it without duplicating work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/api"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fleetctl -workers URL[,URL...] [flags] <command> [arg]

commands:
  status          print the membership view and lifecycle counters
  drain <url>     migrate a worker's results to its ring successors, then remove it
  add <url>       health-check a new worker, backfill its key ranges, then admit it
  top             print per-worker p50/p99 latency by route, plus the fleet merge
  trace <id>      fetch a job's span tree from whichever worker owns it

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

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
		workers   = flag.String("workers", "", "comma-separated clusterd worker URLs (the current fleet)")
		coordURL  = flag.String("coordinator", "", "clusterd -coordinator URL: transitions go through the shared ring register")
		token     = flag.String("token", "", "bearer token for workers started with -token")
		timeout   = flag.Duration("timeout", 10*time.Minute, "bound the whole operation (drains move every blob the worker holds)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Usage = usage
	flag.Parse()
	log := newLogger(*logLevel, *logFormat)

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 || flag.NArg() == 0 {
		usage()
	}
	cmd, arg := flag.Arg(0), flag.Arg(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	copts := []client.Option{client.WithRetries(2)}
	if *token != "" {
		copts = append(copts, client.WithToken(*token))
	}

	// top and trace are read-only observers: they talk to each worker
	// directly instead of going through fleet.New, whose construction
	// health-check would refuse the whole command because one worker is
	// down — exactly when an operator reaches for these.
	switch cmd {
	case "top":
		os.Exit(runTop(ctx, log, urls, copts))
	case "trace":
		if arg == "" {
			usage()
		}
		os.Exit(runTrace(ctx, log, urls, copts, arg))
	}

	fopts := []fleet.Option{
		fleet.WithLog(func(format string, args ...any) {
			log.Info(fmt.Sprintf(format, args...))
		}),
		// Fail fast: fleetctl talks to workers an operator believes are up.
		fleet.WithClientOptions(client.WithRetries(2)),
	}
	if *token != "" {
		fopts = append(fopts, fleet.WithToken(*token))
	}
	if *coordURL != "" {
		fopts = append(fopts, fleet.WithCoordinator(*coordURL))
	}
	f, err := fleet.New(urls, fopts...)
	if err != nil {
		fail(log, "fleet construction", err)
	}

	switch cmd {
	case "status":
		// Construction already synced with the coordinator when one is set.
	case "drain":
		if arg == "" {
			usage()
		}
		if err := f.Drain(ctx, arg); err != nil {
			fail(log, "drain "+arg, err)
		}
	case "add":
		if arg == "" {
			usage()
		}
		if err := f.AddWorker(ctx, arg); err != nil {
			fail(log, "add "+arg, err)
		}
	default:
		usage()
	}

	printStatus(f.FleetStats())
}

// Exit statuses scripts can branch on: 1 is a generic failure, 3 means
// the server refused for load (rate limit or quota — retry later), 4
// means a deadline expired server-side.
const (
	exitFailure     = 1
	exitRateLimited = 3
	exitDeadline    = 4
)

// fail reports a command failure and exits with the status mapped from
// the server's stable JSON error code. Overload refusals print the
// parsed Retry-After so scripts (and operators) know when trying again
// is worthwhile.
func fail(log *slog.Logger, op string, err error) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case api.CodeRateLimited, api.CodeQuotaExceeded:
			log.Error(op+" refused for load", "code", apiErr.Code, "retry_after", apiErr.RetryAfter)
			fmt.Printf("error: %s (retry after %s)\n", apiErr.Code, apiErr.RetryAfter)
			os.Exit(exitRateLimited)
		case api.CodeDeadlineExceeded:
			log.Error(op+" exceeded its deadline", "code", apiErr.Code)
			fmt.Printf("error: %s\n", apiErr.Code)
			os.Exit(exitDeadline)
		}
	}
	log.Error(op+" failed", "err", err)
	os.Exit(exitFailure)
}

func printStatus(fs fleet.Stats) {
	assignable := 0
	for _, m := range fs.Members {
		if m.State == "alive" || m.State == "draining" {
			assignable++
		}
	}
	fmt.Printf("fleet: epoch %d, %d/%d workers assignable, readmissions %d, drain-migrated %d, backfilled %d\n",
		fs.Epoch, assignable, len(fs.Members), fs.Readmissions, fs.DrainMigrated, fs.Backfilled)
	for _, m := range fs.Members {
		fmt.Printf("  %-8s %s (epoch %d)", m.State, m.URL, m.Epoch)
		if m.Health != "" {
			fmt.Printf("  circuit %s", m.Health)
		}
		if m.LastError != "" {
			fmt.Printf("  last error: %s", m.LastError)
		}
		fmt.Println()
	}
}

// runTop prints per-route request counts and p50/p99 for each worker
// that answers, then the fleet-wide merge. Down workers are reported
// and skipped; the command fails only when no worker answers at all.
func runTop(ctx context.Context, log *slog.Logger, urls []string, copts []client.Option) int {
	per := make([]fleet.WorkerLatency, 0, len(urls))
	answered := 0
	for _, u := range urls {
		c, err := client.New(u, copts...)
		if err != nil {
			log.Error("bad worker URL", "worker", u, "err", err)
			continue
		}
		st, err := c.Stats(ctx)
		if err != nil {
			log.Warn("worker unreachable, skipping", "worker", u, "err", err)
			per = append(per, fleet.WorkerLatency{URL: u, Err: err})
			continue
		}
		answered++
		per = append(per, fleet.WorkerLatency{URL: u, Routes: st.Routes})
	}
	if answered == 0 {
		log.Error("no worker answered")
		return 1
	}
	for _, w := range per {
		if w.Err != nil {
			fmt.Printf("%s: unreachable (%v)\n", w.URL, w.Err)
			continue
		}
		fmt.Printf("%s:\n", w.URL)
		printRoutes("  ", w.Routes)
	}
	if answered > 1 {
		fmt.Println("fleet (merged):")
		printRoutes("  ", fleet.MergeRouteLatencies(per))
	}
	return 0
}

func printRoutes(indent string, routes []api.LatencyHistogram) {
	if len(routes) == 0 {
		fmt.Printf("%s(no requests observed)\n", indent)
		return
	}
	fmt.Printf("%s%-28s %10s %12s %12s\n", indent, "route", "count", "p50", "p99")
	for _, h := range routes {
		fmt.Printf("%s%-28s %10d %12s %12s\n", indent, h.Route, h.Count,
			fmtSeconds(h.Quantile(0.50)), fmtSeconds(h.Quantile(0.99)))
	}
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// runTrace asks each worker for the trace until one — the job's owner —
// has it, then prints the span tree with gap accounting.
func runTrace(ctx context.Context, log *slog.Logger, urls []string, copts []client.Option, id string) int {
	var lastErr error
	for _, u := range urls {
		c, err := client.New(u, copts...)
		if err != nil {
			log.Error("bad worker URL", "worker", u, "err", err)
			continue
		}
		tr, err := c.Trace(ctx, id)
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) && apiErr.Code == api.CodeNotFound {
				continue // not this worker's job
			}
			log.Warn("trace fetch failed", "worker", u, "err", err)
			lastErr = err
			continue
		}
		fmt.Printf("worker %s\n", u)
		printTrace(tr)
		return 0
	}
	if lastErr != nil {
		log.Error("trace not found on any reachable worker", "id", id, "last_err", lastErr)
	} else {
		log.Error("trace not found on any worker (still running, evicted, or never submitted)", "id", id)
	}
	return 1
}

func printTrace(tr *api.TraceResponse) {
	fmt.Printf("trace %s  %s  start %s  total %s\n",
		tr.ID, tr.Label, tr.Start, fmtUs(tr.TotalUs))
	for _, sp := range tr.Spans {
		fmt.Printf("  %-10s +%-12s %s\n", sp.Name, fmtUs(sp.StartUs), fmtUs(sp.DurUs))
	}
	fmt.Printf("  %-10s %s\n", "(gap)", fmtUs(tr.UnaccountedUs))
}

func fmtUs(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}
