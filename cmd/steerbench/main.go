// Command steerbench regenerates the paper's tables and figures on the
// simulated substrate and prints the reports. Every experiment submits its
// runs to one shared simulation engine, so identical (simpoint, setup)
// simulations across figures execute exactly once per invocation — and,
// with -cachedir, at most once across invocations: completed results are
// persisted to a content-addressed disk store and later runs are served
// from it without simulating.
//
// Usage:
//
//	steerbench                   # everything, full suite
//	steerbench -exp fig5         # one experiment
//	steerbench -quick -uops 20000
//	steerbench -out results.txt  # report + cache-stats footer to a file
//	steerbench -cachedir ~/.cache/steerbench   # persist results on disk
//	steerbench -progress         # live phase/ETA progress on stderr
//	steerbench -remote http://host:8080        # execute on one clusterd worker
//	steerbench -remote http://h1:8080,http://h2:8080   # shard across a fleet
//	steerbench -cpuprofile cpu.prof -memprofile mem.prof   # profile the run
//	steerbench -trace-out run.json               # Chrome-trace timeline of the run
//
// Experiments: table1 table2 table3 fig5 fig6 fig7 policyspace ablation all
//
// -cpuprofile and -memprofile write pprof profiles of the whole run
// (inspect with `go tool pprof`); profiles flush on clean exits only. The
// "# engine:" footer records cache effectiveness (simulations, result,
// store and program cache hits), so dedup regressions show up in CI
// report diffs. -trace-out records a span
// timeline of the whole suite — per-stage engine flights for local runs,
// per-batch submit/stream/fetch flights for remote ones — as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// Reports written to stdout/-out are deterministic (timing goes to
// stderr), so two invocations over the same cache directory produce
// byte-identical reports. With -remote, simulations execute on a clusterd
// instance through the client SDK instead of in-process; the report is
// byte-identical to a local run, and the daemon's content-addressed store
// dedups repeated invocations across every client that ever submitted.
// With several comma-separated URLs the batch shards across the fleet by
// consistent hash of each job's result key, and a worker lost mid-run is
// survived: its unfinished jobs re-shard onto the remaining workers (the
// report stays byte-identical). A lost or failing worker's circuit opens;
// -readmit sets how long it is routed around before a half-open probe
// re-admits it mid-suite. -coordinator converges planned membership
// changes with other concurrent runners through a clusterd started
// with -coordinator. Fleet runs append a "# fleet:" footer (membership
// epoch plus per-worker state and circuit) next to the "# engine:" one — consumers
// diffing saved reports strip the "# "-prefixed lines.
//
// Ctrl-C cancels in-flight simulations and exits cleanly with status 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustersim"
	"clustersim/client"
	"clustersim/fleet"
	"clustersim/internal/experiments"
	"clustersim/internal/obs"
)

// splitURLs parses the -remote value: a comma-separated URL list, blank
// entries ignored so trailing commas don't create phantom workers.
func splitURLs(remote string) []string {
	var urls []string
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// progressMeter renders the live stderr progress line: the experiment
// phase currently submitting jobs, the engine-lifetime completed/submitted
// counters, and an ETA extrapolated from the observed per-job latency.
type progressMeter struct {
	mu    sync.Mutex
	start time.Time
	phase string
}

func newProgressMeter() *progressMeter { return &progressMeter{start: time.Now()} }

func (p *progressMeter) setPhase(name string) {
	p.mu.Lock()
	p.phase = name
	p.mu.Unlock()
}

func (p *progressMeter) print(done, total int, label string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	eta := "--"
	if done > 0 && done < total {
		perJob := time.Since(p.start) / time.Duration(done)
		eta = (time.Duration(total-done) * perJob).Round(time.Second).String()
	}
	fmt.Fprintf(os.Stderr, "\r[%s %d/%d eta %s] %-40.40s", p.phase, done, total, eta, label)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|table3|fig5|fig6|fig7|policyspace|ablation|all")
		uops     = flag.Int("uops", 120_000, "dynamic micro-ops per simulation point")
		quick    = flag.Bool("quick", false, "use the reduced 8-point suite")
		par      = flag.Int("parallel", 0, "concurrent simulations (0 = all cores)")
		out      = flag.String("out", "", "also write the report to this file")
		csvDir   = flag.String("csvdir", "", "write per-figure CSV files into this directory")
		cacheDir = flag.String("cachedir", "", "persist completed results in this directory (reruns skip finished simulations; with -remote it only backs locally executed fallback jobs)")
		cacheMax = flag.Int64("cachemax", 0, "bound the -cachedir store to this many bytes (0 = unbounded)")
		progress = flag.Bool("progress", false, "print live phase/ETA progress and engine cache stats to stderr")
		remote   = flag.String("remote", "", "execute simulations remotely: one clusterd URL, or a comma-separated list to shard across a fleet; jobs that cannot travel run locally")
		token    = flag.String("token", "", "bearer token for clusterd workers started with -token")
		compress = flag.Bool("compress", false, "gzip result blobs in the -cachedir store (old uncompressed blobs stay readable)")
		steal    = flag.Int("steal", 0, "with a multi-worker -remote: let idle workers duplicate up to this many straggler jobs per batch (first result wins)")
		coordURL = flag.String("coordinator", "", "with a multi-worker -remote: share one membership view with other runners through this clusterd -coordinator URL")
		readmit  = flag.Duration("readmit", 0, "with a multi-worker -remote: how long a failed worker is routed around before a half-open probe may re-admit it (0 = fleet default, 5s)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format; profiles are flushed on clean exit)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file after the run (pprof format)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the whole run to this file (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	// Profiling hooks for hot-loop work: profiles flush on a normal exit
	// (error and interrupt paths skip them — profile complete runs).
	finishProfiles := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		finishProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memProf != "" {
		stopCPU := finishProfiles
		finishProfiles = func() {
			stopCPU()
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal, restore default handling so a second
		// ctrl-C force-kills even if shutdown stalls somewhere.
		<-ctx.Done()
		stop()
	}()

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		path := *csvDir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	// -trace-out traces the whole run: the local engine records per-stage
	// flights directly, remote runners record one client-side flight per
	// batch (submit/stream/fetch spans), and everything lands in one
	// Chrome-trace timeline. The capacity is sized for a full suite; the
	// ring evicts the oldest flights beyond it rather than failing.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(16384)
	}

	engOpts := clustersim.EngineOptions{Parallelism: *par, Tracer: tracer}
	if *cacheDir != "" {
		open := clustersim.OpenDiskStore
		if *compress {
			open = clustersim.OpenCompressedDiskStore
		}
		st, err := open(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		engOpts.ResultStore = st
	}
	meter := newProgressMeter()
	if *progress && *remote == "" {
		engOpts.Progress = meter.print
	}
	eng := clustersim.NewEngine(engOpts)

	// The runner is the execution seam: the local engine by default, a
	// clusterd client when -remote is one URL, a sharded fleet runner when
	// it is a comma-separated list (with the local engine as the fallback
	// for jobs that have no declarative wire form, e.g. the machine-tweak
	// ablations). Everything downstream is runner-agnostic.
	var runner clustersim.Runner = eng
	var fl *fleet.Runner // non-nil when sharding, for the fleet footer
	urls := splitURLs(*remote)
	if *remote != "" && len(urls) == 0 {
		// "-remote ," (e.g. from unset env vars) must not silently run the
		// whole suite locally with the remote flags ignored.
		fmt.Fprintf(os.Stderr, "steerbench: -remote %q contains no URLs\n", *remote)
		os.Exit(1)
	}
	if len(urls) == 1 {
		var copts []client.Option
		if *token != "" {
			copts = append(copts, client.WithToken(*token))
		}
		c, err := client.New(urls[0], copts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := c.Health(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "steerbench: clusterd at %s unreachable: %v\n", urls[0], err)
			os.Exit(1)
		}
		// /healthz is deliberately auth-exempt, so verify the credential
		// with an authenticated round trip — a wrong -token should fail
		// here, not as per-job errors mid-run (fleet.New does the same).
		if _, err := c.Stats(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "steerbench: clusterd at %s refused: %v\n", urls[0], err)
			os.Exit(1)
		}
		ropts := []client.RunnerOption{client.WithFallback(eng)}
		if *progress {
			ropts = append(ropts, client.WithProgress(meter.print))
		}
		if tracer != nil {
			ropts = append(ropts, client.WithRunnerTracer(tracer))
		}
		runner = client.NewRunner(c, ropts...)
	} else if len(urls) > 1 {
		fopts := []fleet.Option{
			fleet.WithFallback(eng),
			fleet.WithLog(func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}),
		}
		if *token != "" {
			fopts = append(fopts, fleet.WithToken(*token))
		}
		if *steal > 0 {
			fopts = append(fopts, fleet.WithSteal(*steal))
		}
		if *progress {
			fopts = append(fopts, fleet.WithProgress(meter.print))
		}
		if tracer != nil {
			fopts = append(fopts, fleet.WithRunnerOptions(client.WithRunnerTracer(tracer)))
		}
		if *coordURL != "" {
			fopts = append(fopts, fleet.WithCoordinator(*coordURL))
		}
		fopts = append(fopts, fleet.WithReadmit(*readmit))
		var err error
		fl, err = fleet.New(urls, fopts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "steerbench: %v\n", err)
			os.Exit(1)
		}
		defer fl.Close()
		fmt.Fprintf(os.Stderr, "steerbench: sharding across %d clusterd workers\n", len(urls))
		runner = fl
	}
	opt := clustersim.ExperimentOptions{
		NumUops: *uops, Quick: *quick, Parallelism: *par,
		Runner: runner, Context: ctx,
	}

	var sink io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}

	run := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		meter.setPhase(name)
		start := time.Now()
		text, err := fn()
		if *progress {
			fmt.Fprint(os.Stderr, "\r\033[K") // clear the progress line
		}
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "%s: interrupted\n", name)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(sink, text)
		// Timing is nondeterministic, so it goes to stderr only: the
		// report stream stays byte-identical across (cached) reruns.
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table2", func() (string, error) { return clustersim.Table2(), nil })
	run("table3", func() (string, error) { return clustersim.Table3(), nil })
	run("table1", func() (string, error) {
		r, err := clustersim.Table1(opt)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("fig5", func() (string, error) {
		r, err := clustersim.Fig5(opt)
		if err != nil {
			return "", err
		}
		writeCSV("fig5.csv", r.CSV())
		return r.Render(), nil
	})
	run("fig6", func() (string, error) {
		r, err := clustersim.Fig6(opt)
		if err != nil {
			return "", err
		}
		writeCSV("fig6.csv", r.CSV())
		return r.Render(), nil
	})
	run("fig7", func() (string, error) {
		r, err := clustersim.Fig7(opt)
		if err != nil {
			return "", err
		}
		writeCSV("fig7.csv", r.CSV())
		return r.Render(), nil
	})
	run("policyspace", func() (string, error) {
		r, err := experiments.PolicySpace(opt)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablation", func() (string, error) {
		var b strings.Builder
		chain, err := experiments.AblationChainLen(opt)
		if err != nil {
			return "", err
		}
		b.WriteString(chain.Render())
		b.WriteByte('\n')
		nvc, err := experiments.AblationNumVC(opt)
		if err != nil {
			return "", err
		}
		b.WriteString(nvc.Render())
		b.WriteByte('\n')
		lats, err := experiments.AblationLinkLatency(opt)
		if err != nil {
			return "", err
		}
		for _, r := range lats {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		iqs, err := experiments.AblationIQSize(opt)
		if err != nil {
			return "", err
		}
		for _, r := range iqs {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		scopes, err := experiments.AblationRegionScope(opt)
		if err != nil {
			return "", err
		}
		for _, r := range scopes {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		sos, err := experiments.AblationStallOverSteer(opt)
		if err != nil {
			return "", err
		}
		b.WriteString(sos.Render())
		b.WriteByte('\n')
		cbw, err := experiments.AblationCopyBandwidth(opt)
		if err != nil {
			return "", err
		}
		for _, r := range cbw {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		vcc, err := experiments.AblationVCComm(opt)
		if err != nil {
			return "", err
		}
		for _, r := range vcc {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		topo, err := experiments.AblationTopology(opt)
		if err != nil {
			return "", err
		}
		for _, r := range topo {
			b.WriteString(r.Render())
			b.WriteByte('\n')
		}
		pf, err := experiments.AblationPrefetch(opt)
		if err != nil {
			return "", err
		}
		b.WriteString(pf.Render())
		return b.String(), nil
	})

	// Cache effectiveness: always on stderr with -progress, and recorded
	// in the saved report whenever one is being written ("# "-prefixed so
	// consumers — and the CI byte-identity check — can strip it; the
	// counters legitimately differ between a cold and a warm run).
	report := experiments.EngineReport(runner.Stats())
	if *progress {
		fmt.Fprintln(os.Stderr, report)
	}
	if *out != "" {
		fmt.Fprintf(sink, "# %s\n", report)
	}
	// Fleet runs also record the control plane: the membership epoch, the
	// lifecycle counters, and each worker's state — so a saved report shows
	// which workers actually served it and why any were excluded.
	if fl != nil {
		footer := fleetFooter(fl.FleetStats())
		if *progress {
			fmt.Fprint(os.Stderr, footer)
		}
		if *out != "" {
			fmt.Fprint(sink, footer)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := tracer.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceOut, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# trace: wrote %d flights to %s\n", len(tracer.Records()), *traceOut)
	}
	finishProfiles()
}

// fleetFooter renders the "# fleet:" report footer: one summary line and
// one line per worker the fleet has ever admitted.
func fleetFooter(fs fleet.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet: epoch %d, readmissions %d, drain-migrated %d, backfilled %d\n",
		fs.Epoch, fs.Readmissions, fs.DrainMigrated, fs.Backfilled)
	for _, m := range fs.Members {
		fmt.Fprintf(&b, "# fleet: worker %s %s (epoch %d) circuit %s", m.URL, m.State, m.Epoch, m.Health)
		if m.LastError != "" {
			fmt.Fprintf(&b, " last error: %s", m.LastError)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
