// Command loadgen drives a live clusterd with warm-cache serving traffic
// and reports throughput and latency in `go test -bench` line format, so
// cmd/benchjson can snapshot and gate the serving path exactly like the
// core hot loop.
//
// The run has two halves. A warm-up phase submits a small batch through
// the client SDK and waits for completion, so every later request hits
// results that already exist. The measured phase then hammers four
// serving paths with -clients concurrent workers for -duration each:
//
//	ServingSSEFanout    GET /v1/jobs/{id}/stream replayed end to end
//	ServingSubmitWarm   POST /v1/jobs resubmitting the warm batch
//	                    (served from the result store, no simulation)
//	ServingWarmFetch    GET /v1/results full JSON bodies
//	ServingWarmFetchETag same fetch replaying the ETag (304, no body)
//
// Each benchmark line reports mean latency as ns/op plus req/s, p50-ms
// and p99-ms, with the worker count as the customary "-N" suffix:
//
//	BenchmarkServingWarmFetch-64  120000  82000 ns/op  12100 req/s  4.10 p50-ms  11.30 p99-ms
//
// Pipe the output through `benchjson -out BENCH_7.json` to snapshot or
// `benchjson -baseline BENCH_7.json` to gate.
//
// Each phase is bracketed by a /v1/stats read: the delta of the server's
// per-route request-latency histogram over the phase is cross-checked
// against the client-observed median, and a >2× divergence is warned on
// stderr (stdout stays benchjson-parseable) — catching time spent outside
// the handler, like transport queueing or connection churn. The tails are
// not compared: when loadgen and clusterd share the host's CPUs, the
// client-side p99 is dominated by the scheduling of loadgen's own workers,
// so a p99 check would warn on every run and carry no signal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"clustersim/client"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/store"
)

// warmBatch is the job set every benchmark serves from: one spec per
// steering kind the paper compares, all on the cheapest simpoint.
func warmBatch(uops int) []engine.JobSpec {
	kinds := []engine.SetupSpec{
		{Kind: "OP", NumClusters: 2},
		{Kind: "OB", NumClusters: 2},
		{Kind: "RHOP", NumClusters: 2},
		{Kind: "VC", NumClusters: 2, NumVC: 2},
		{Kind: "OP", NumClusters: 4},
		{Kind: "VC", NumClusters: 2, NumVC: 4},
	}
	specs := make([]engine.JobSpec, len(kinds))
	for i, k := range kinds {
		specs[i] = engine.JobSpec{
			Simpoint: "gzip-1",
			Setup:    k,
			Opts:     engine.OptionsSpec{NumUops: uops},
		}
	}
	return specs
}

// result aggregates one benchmark's measured phase.
type result struct {
	requests  int
	elapsed   time.Duration
	latencies []time.Duration // merged across workers, unsorted
}

func (r *result) reqPerSec() float64 { return float64(r.requests) / r.elapsed.Seconds() }

func (r *result) meanNs() float64 {
	if len(r.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range r.latencies {
		sum += l
	}
	return float64(sum.Nanoseconds()) / float64(len(r.latencies))
}

// percentileMs reports the p-th percentile latency in milliseconds;
// latencies must be sorted first.
func (r *result) percentileMs(p float64) float64 {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(p * float64(len(r.latencies)-1))
	return float64(r.latencies[idx].Nanoseconds()) / 1e6
}

// run drives `clients` workers calling one request repeatedly for the
// given duration, collecting per-request latency. The request callback
// returns an error to abort the whole benchmark (a serving bug, not a
// measurement).
func run(clients int, duration time.Duration, req func(worker int) error) (*result, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		lats     = make([][]time.Duration, clients)
	)
	stop := make(chan struct{})
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := req(w); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res := &result{elapsed: time.Since(start)}
	for _, l := range lats {
		res.requests += len(l)
		res.latencies = append(res.latencies, l...)
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	return res, nil
}

func report(name string, clients int, r *result) {
	fmt.Printf("Benchmark%s-%d \t%8d\t%12.0f ns/op\t%12.0f req/s\t%10.2f p50-ms\t%10.2f p99-ms\n",
		name, clients, r.requests, r.meanNs(), r.reqPerSec(),
		r.percentileMs(0.50), r.percentileMs(0.99))
}

// httpGet issues one GET with optional headers, drains the body, and
// checks the status.
func httpGet(hc *http.Client, token, u string, hdr map[string]string, wantStatus int) error {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		// A server predating the conditional-request protocol ignores
		// If-None-Match and sends the full 200 body; the benchmark still
		// measures it (that contrast is the point of the before block).
		if wantStatus == http.StatusNotModified && resp.StatusCode == http.StatusOK {
			return nil
		}
		return fmt.Errorf("%s: status %d, want %d", u, resp.StatusCode, wantStatus)
	}
	return nil
}

func main() {
	var (
		base     = flag.String("url", "http://127.0.0.1:8080", "clusterd base URL")
		token    = flag.String("token", "", "bearer token (when the server requires one)")
		clients  = flag.Int("clients", 64, "concurrent workers per benchmark")
		duration = flag.Duration("duration", 3*time.Second, "measured time per benchmark")
		uops     = flag.Int("uops", 20000, "simulated uops per warm-up job")
		overldFl = flag.Bool("overload", false, "run the two-tenant overload demo instead of the serving benchmarks (self-asserting; start the server with -quota/-rate)")
		flood    = flag.Int("flood", 16, "bulk-tenant flood workers in -overload mode")
		samples  = flag.Int("samples", 30, "interactive latency samples per overload phase")
	)
	flag.Parse()

	ctx := context.Background()
	cl, err := client.New(*base, client.WithToken(*token))
	if err != nil {
		fatal(err)
	}
	if err := cl.Health(ctx); err != nil {
		fatal(fmt.Errorf("server not reachable: %w", err))
	}
	if *overldFl {
		os.Exit(overload(&http.Client{Transport: client.DefaultTransport}, *base, *token, *uops, *flood, *samples))
	}

	// Warm up: simulate the batch once; every measured request below is
	// then a pure serving-path operation.
	specs := warmBatch(*uops)
	sub, err := cl.Submit(ctx, specs)
	if err != nil {
		fatal(err)
	}
	for {
		status, err := cl.Status(ctx, sub.ID)
		if err != nil {
			fatal(err)
		}
		if status.Done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	keys := sub.Keys
	if len(keys) == 0 {
		fatal(fmt.Errorf("warm-up submission returned no keys"))
	}
	fmt.Fprintf(os.Stderr, "loadgen: warm batch of %d jobs done, measuring %d clients × %s per benchmark\n",
		len(keys), *clients, *duration)

	// All measured traffic shares the tuned transport — the same pooling
	// the fleet and client SDK use in production.
	hc := &http.Client{Transport: client.DefaultTransport}

	submitBody, err := submitJSON(specs)
	if err != nil {
		fatal(err)
	}
	benches := []struct {
		name  string
		route string // server-side histogram route label this bench drives
		req   func(worker int) error
	}{
		// The fan-out replays the warm-up submission, so it runs first:
		// the submit phase's thousands of submissions push that one past
		// the server's retention bound, and its stream would answer 404.
		{"ServingSSEFanout", "/v1/jobs/{id}/stream", func(w int) error {
			return streamAll(hc, *token, *base, sub.ID, len(keys))
		}},
		{"ServingSubmitWarm", "/v1/jobs", func(w int) error {
			req, err := http.NewRequest(http.MethodPost, *base+"/v1/jobs", strings.NewReader(submitBody))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			if *token != "" {
				req.Header.Set("Authorization", "Bearer "+*token)
			}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("submit: status %d", resp.StatusCode)
			}
			return nil
		}},
		{"ServingWarmFetch", "/v1/results", func(w int) error {
			key := keys[w%len(keys)]
			return httpGet(hc, *token, *base+"/v1/results?key="+url.QueryEscape(key), nil, http.StatusOK)
		}},
		{"ServingWarmFetchETag", "/v1/results", func(w int) error {
			key := keys[w%len(keys)]
			hdr := map[string]string{"If-None-Match": `"` + store.Addr(key) + `"`}
			return httpGet(hc, *token, *base+"/v1/results?key="+url.QueryEscape(key), hdr, http.StatusNotModified)
		}},
	}

	// Bracket each phase with a /v1/stats read: the delta between the two
	// reads is the server's own view of exactly the traffic the phase
	// generated, and a client/server percentile divergence localizes where
	// the time went (in the handler, or outside it). A failed read
	// disables the cross-check with one warning rather than failing the
	// benchmark.
	scrapesOK := true
	scrape := func() map[string]obs.Snapshot {
		if !scrapesOK {
			return nil
		}
		stats, err := cl.Stats(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: /v1/stats failed, skipping server-side cross-checks: %v\n", err)
			scrapesOK = false
			return nil
		}
		m := make(map[string]obs.Snapshot, len(stats.Routes))
		for _, h := range stats.Routes {
			m[h.Route] = h.Snapshot()
		}
		return m
	}

	for _, b := range benches {
		before := scrape()
		res, err := run(*clients, *duration, b.req)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", b.name, err))
		}
		report(b.name, *clients, res)
		if after := scrape(); before != nil && after != nil {
			crossCheck(b.name, b.route, res, after[b.route].Sub(before[b.route]))
		}
	}
}

// crossCheck compares the phase's client-observed median against the
// server's histogram delta for the route the phase drove, warning on >2×
// divergence — the signal that request time is going somewhere other than
// the handler (transport queueing, connection setup, reconnects). Server
// quantiles are bucket-interpolated, so sub-millisecond differences are
// quantization, not divergence, and are not flagged. Only p50 is compared:
// with client and server on the same CPUs, the client's p99 measures the
// scheduling of loadgen's workers beside the server, and a check that
// warns on every run says nothing.
func crossCheck(name, route string, r *result, server obs.Snapshot) {
	if server.Count == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %s: server recorded no requests on route %s during the phase\n", name, route)
		return
	}
	clientMs := r.percentileMs(0.50)
	serverMs := server.Quantile(0.50) * 1e3
	hi, lo := max(clientMs, serverMs), min(clientMs, serverMs)
	if hi > 2*lo && hi-lo > 1.0 {
		fmt.Fprintf(os.Stderr, "loadgen: WARNING %s p50 diverges >2x: client %.2fms vs server %.2fms (route %s)\n",
			name, clientMs, serverMs, route)
	}
}

// submitJSON renders the warm batch as a /v1/jobs request body.
func submitJSON(specs []engine.JobSpec) (string, error) {
	var sb strings.Builder
	sb.WriteString(`{"jobs":[`)
	for i, s := range specs {
		if i > 0 {
			sb.WriteByte(',')
		}
		blob, err := json.Marshal(s)
		if err != nil {
			return "", err
		}
		sb.Write(blob)
	}
	sb.WriteString(`]}`)
	return sb.String(), nil
}

// streamAll opens one SSE connection and reads until the done event,
// verifying the expected number of result frames arrived.
func streamAll(hc *http.Client, token, base, id string, want int) error {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if got := strings.Count(string(blob), "event: result"); got != want {
		return fmt.Errorf("stream: %d result events, want %d", got, want)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
