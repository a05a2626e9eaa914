package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/client"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/pipeline"
	"clustersim/internal/service"
	"clustersim/internal/sim"
	"clustersim/internal/store"
	"clustersim/internal/workload"
)

// startServer builds a clusterd-shaped stack behind httptest and a client
// pointed at it.
func startServer(t *testing.T) (*httptest.Server, *client.Client, *engine.Engine) {
	return startServerWith(t, func(h http.Handler) http.Handler { return h })
}

// startServerWith is startServer with the service handler wrapped by wrap.
func startServerWith(t *testing.T, wrap func(http.Handler) http.Handler) (*httptest.Server, *client.Client, *engine.Engine) {
	t.Helper()
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	ts := httptest.NewServer(wrap(service.New(context.Background(), eng, st)))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithBackoff(10*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return ts, c, eng
}

// The full SDK round trip: submit a batch, stream every completion
// exactly once, fetch a full result by key, and read stats.
func TestSubmitStreamFetchRoundTrip(t *testing.T) {
	_, c, _ := startServer(t)
	ctx := context.Background()

	specs := []engine.JobSpec{
		{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 3000}},
		{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "VC", NumVC: 2, NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 3000}},
	}
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Total != 2 || len(sub.Keys) != 2 || sub.Keys[0] == "" {
		t.Fatalf("submit ack: %+v", sub)
	}

	seen := map[int]api.JobEvent{}
	if err := c.Stream(ctx, sub.ID, func(ev api.JobEvent) {
		if _, dup := seen[ev.Index]; dup {
			t.Errorf("event %d delivered twice", ev.Index)
		}
		seen[ev.Index] = ev
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0].Error != "" || seen[1].Error != "" {
		t.Fatalf("streamed events: %+v", seen)
	}

	res, err := c.Result(ctx, sub.Keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Setup != "VC" || res.Metrics == nil || res.Metrics.Cycles != seen[1].Cycles {
		t.Fatalf("fetched result: %+v", res)
	}
	summary, err := c.ResultSummary(ctx, sub.Keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if summary.Cycles != res.Metrics.Cycles || summary.Simpoint != "gzip-1" {
		t.Fatalf("summary: %+v", summary)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Simulations != 2 || st.Disk == nil {
		t.Fatalf("stats: %+v", st)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	// Unknown keys surface the typed error with its stable code.
	_, err = c.Result(ctx, "absent")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("absent key error: %v", err)
	}
}

// Both result fetches go through RawResult, so a drain's or backfill's
// raw fetch reports to the call observer under the same route as a
// decoded fetch.
func TestResultFetchesObserved(t *testing.T) {
	ts, _, _ := startServer(t)
	var routes []string
	var statuses []int
	c, err := client.New(ts.URL, client.WithCallObserver(func(route string, status int, _ time.Duration) {
		routes = append(routes, route)
		statuses = append(statuses, status)
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.RawResult(ctx, "absent"); err == nil {
		t.Error("raw fetch of an absent key succeeded")
	}
	if _, err := c.Result(ctx, "absent"); err == nil {
		t.Error("fetch of an absent key succeeded")
	}
	if len(routes) != 2 || routes[0] != "/v1/results" || routes[1] != "/v1/results" ||
		statuses[0] != http.StatusNotFound || statuses[1] != http.StatusNotFound {
		t.Errorf("observed %q with statuses %v, want two 404s on /v1/results", routes, statuses)
	}
}

// An upload reports to the call observer under the same route as the
// fetches, with status 0 when the request never reaches a server.
func TestResultUploadsObserved(t *testing.T) {
	ts, _, _ := startServer(t)
	var routes []string
	var statuses []int
	c, err := client.New(ts.URL, client.WithCallObserver(func(route string, status int, _ time.Duration) {
		routes = append(routes, route)
		statuses = append(statuses, status)
	}))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := engine.EncodeResult(&engine.Result{
		Simpoint: &workload.Simpoint{Name: "gzip-1"}, Setup: "OP", Metrics: &pipeline.Metrics{Cycles: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.PutResult(ctx, "uploaded", blob); err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 || routes[0] != "/v1/results" || statuses[0] != http.StatusNoContent {
		t.Fatalf("observed %q with statuses %v, want one 204 on /v1/results", routes, statuses)
	}
	ts.Close()
	if err := c.PutResult(ctx, "uploaded", blob); err == nil {
		t.Fatal("upload to a closed server succeeded")
	}
	if len(routes) != 2 || routes[1] != "/v1/results" || statuses[1] != 0 {
		t.Errorf("observed %q with statuses %v, want a status-0 upload after the 204", routes, statuses)
	}
}

// A remote runner must produce results that are indistinguishable from a
// local engine's — same metrics, same complexity accounting, same
// simpoint rows — because reports are rendered from them byte for byte.
func TestRunnerMatchesLocalEngine(t *testing.T) {
	_, c, _ := startServer(t)
	ctx := context.Background()

	sps := []*workload.Simpoint{workload.ByName("gzip-1"), workload.ByName("mcf")}
	setups := []sim.Setup{sim.SetupOP(2), sim.SetupVC(2, 2)}
	opt := sim.RunOptions{NumUops: 3000}

	remote := client.NewRunner(c)
	got, err := engine.RunMatrixOn(ctx, remote, sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(engine.Options{Parallelism: 2})
	want, err := engine.RunMatrixOn(ctx, local, sps, setups, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sps {
		for j := range setups {
			g, w := got[i][j], want[i][j]
			if g.Err != nil || w.Err != nil {
				t.Fatalf("cell %d/%d errs: %v %v", i, j, g.Err, w.Err)
			}
			if g.Simpoint != sps[i] {
				t.Errorf("cell %d/%d: result not re-bound to the submitted simpoint", i, j)
			}
			if !reflect.DeepEqual(g.Metrics, w.Metrics) {
				t.Errorf("cell %d/%d: metrics diverge:\nremote %+v\nlocal  %+v", i, j, g.Metrics, w.Metrics)
			}
			if !reflect.DeepEqual(g.Complexity, w.Complexity) {
				t.Errorf("cell %d/%d: complexity diverges", i, j)
			}
		}
	}

	// Rerunning the same matrix executes nothing new on the server, and
	// the runner's delta stats say so.
	fresh := client.NewRunner(c)
	if _, err := engine.RunMatrixOn(ctx, fresh, sps, setups, opt); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Simulations != 0 {
		t.Errorf("second remote run executed %d simulations, want 0", st.Simulations)
	}
}

// customJob is a job with no declarative wire form: gzip-1's program
// under a name outside the suite.
func customJob(name string, setup engine.Setup) engine.Job {
	sp := workload.ByName("gzip-1")
	return engine.Job{
		Simpoint: &workload.Simpoint{Name: name, Bench: name, Weight: 1,
			Seed: sp.Seed, Program: sp.Program},
		Setup: setup,
		Opts:  engine.RunOptions{NumUops: 2000},
	}
}

// Jobs with no declarative wire form fail loudly on a bare runner instead
// of silently simulating the wrong thing; Hybrid runs them locally.
func TestRunnerFallback(t *testing.T) {
	_, c, serverEng := startServer(t)
	ctx := context.Background()
	custom := customJob("homegrown", sim.SetupOP(2))

	bare := client.NewRunner(c)
	if res := bare.Run(ctx, custom); res.Err == nil {
		t.Fatal("non-remoteable job succeeded without a fallback")
	}

	local := engine.New(engine.Options{Parallelism: 1})
	hybrid := client.Hybrid(bare, local)
	res := hybrid.Run(ctx, custom)
	if res.Err != nil {
		t.Fatalf("fallback run: %v", res.Err)
	}
	if serverEng.Stats().Simulations != 0 {
		t.Errorf("custom-program job leaked to the server")
	}
	if local.Stats().Simulations != 1 {
		t.Errorf("custom-program job did not run on the fallback engine")
	}
}

// One Stream through Hybrid that mixes suite jobs with custom-program
// jobs returns every result under its submitted index, runs the custom
// jobs on the local engine only, and reports progress once per job.
func TestHybridMixedBatch(t *testing.T) {
	_, c, serverEng := startServer(t)
	ctx := context.Background()
	opts := engine.RunOptions{NumUops: 2000}
	jobs := []engine.Job{
		{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2), Opts: opts},
		customJob("homegrown", sim.SetupOP(2)),
		{Simpoint: workload.ByName("mcf"), Setup: sim.SetupVC(2, 2), Opts: opts},
		customJob("homegrown-2", sim.SetupVC(2, 2)),
		{Simpoint: workload.ByName("swim"), Setup: sim.SetupOP(2), Opts: opts},
	}
	local := engine.New(engine.Options{Parallelism: 2})
	var mu sync.Mutex
	var dones []int
	var labels, wantLabels []string
	for _, j := range jobs {
		wantLabels = append(wantLabels, j.Simpoint.Name+"/"+j.Setup.Label)
	}
	r := engine.Progress(client.Hybrid(client.NewRunner(c), local), func(done, total int, label string) {
		mu.Lock()
		defer mu.Unlock()
		dones, labels = append(dones, done), append(labels, label)
		if total != len(jobs) {
			t.Errorf("progress total %d, want %d", total, len(jobs))
		}
	})

	seen := make([]bool, len(jobs))
	for jr := range r.Stream(ctx, jobs) {
		if seen[jr.Index] {
			t.Fatalf("index %d delivered twice", jr.Index)
		}
		seen[jr.Index] = true
		want := jobs[jr.Index]
		if jr.Result.Err != nil {
			t.Fatalf("job %d: %v", jr.Index, jr.Result.Err)
		}
		if jr.Job.Simpoint != want.Simpoint || jr.Result.Simpoint.Name != want.Simpoint.Name ||
			jr.Result.Setup != want.Setup.Label {
			t.Errorf("index %d carries %s/%s, submitted %s/%s", jr.Index,
				jr.Result.Simpoint.Name, jr.Result.Setup, want.Simpoint.Name, want.Setup.Label)
		}
	}
	if slices.Contains(seen, false) {
		t.Fatalf("missing results: %v", seen)
	}
	if got := local.Stats().Simulations; got != 2 {
		t.Errorf("local engine ran %d simulations, want the 2 custom jobs", got)
	}
	if got := serverEng.Stats().Simulations; got != 3 {
		t.Errorf("server ran %d simulations, want the 3 suite jobs", got)
	}
	slices.Sort(dones)
	if !slices.Equal(dones, []int{1, 2, 3, 4, 5}) {
		t.Errorf("progress done values %v, want 1..5", dones)
	}
	slices.Sort(labels)
	slices.Sort(wantLabels)
	if !slices.Equal(labels, wantLabels) {
		t.Errorf("progress labels %v, want %v", labels, wantLabels)
	}
}

// submitLog wraps a server handler and records the ID of every
// submission it accepts, whether or not the client read the ack.
type submitLog struct {
	inner http.Handler
	mu    sync.Mutex
	ids   []string
}

func (l *submitLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
		l.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	l.inner.ServeHTTP(rec, r)
	var ack api.SubmitResponse
	if rec.Code == http.StatusAccepted && json.Unmarshal(rec.Body.Bytes(), &ack) == nil {
		l.mu.Lock()
		l.ids = append(l.ids, ack.ID)
		l.mu.Unlock()
	}
	maps.Copy(w.Header(), rec.Header())
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// Canceling the context mid-stream unblocks every pending job with the
// context's error and closes the runner's channel.
func TestStreamContextCancellation(t *testing.T) {
	accepted := &submitLog{}
	_, c, _ := startServerWith(t, func(h http.Handler) http.Handler {
		accepted.inner = h
		return accepted
	})
	ctx, cancel := context.WithCancel(context.Background())

	sps := []*workload.Simpoint{workload.ByName("gzip-1"), workload.ByName("mcf"),
		workload.ByName("crafty"), workload.ByName("swim")}
	jobs := make([]engine.Job, len(sps))
	for i, sp := range sps {
		jobs[i] = engine.Job{Simpoint: sp, Setup: sim.SetupVC(2, 2), Opts: engine.RunOptions{NumUops: 120_000}}
	}
	r := client.NewRunner(c)
	out := r.Stream(ctx, jobs)
	cancel()

	done := make(chan struct{})
	var results []engine.JobResult
	go func() {
		defer close(done)
		for jr := range out {
			results = append(results, jr)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not unwind after cancellation")
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}

	// The client-side Stream call itself reports the context error.
	sub, err := c.Submit(context.Background(), []engine.JobSpec{
		{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 120_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Stream(ctx2, sub.ID, func(api.JobEvent) {}) }()
	cancel2()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stream error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Stream did not return after cancellation")
	}

	// Canceling a subscriber does not cancel the server's run: let every
	// accepted submission finish before t.TempDir's cleanup removes the
	// disk store its results are written to.
	accepted.mu.Lock()
	ids := slices.Clone(accepted.ids)
	accepted.mu.Unlock()
	if !slices.Contains(ids, sub.ID) {
		t.Fatalf("submission %s missing from the accepted %v", sub.ID, ids)
	}
	for _, id := range ids {
		waitStatusDone(t, c, id)
	}
}

// waitStatusDone polls a submission's status until it reports done.
func waitStatusDone(t *testing.T, c *client.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("submission %s never finished", id)
}

// abortingStream wraps the service handler and kills the first stream
// connection right after its first flush, simulating a transport drop;
// the client must reconnect and still deliver every event exactly once.
type abortingStream struct {
	inner   http.Handler
	streams atomic.Int64
}

type abortAfterFlush struct {
	http.ResponseWriter
	armed bool
}

func (w *abortAfterFlush) Flush() {
	if w.armed {
		// Drop the connection with the second flush's payload (the done
		// event) still unflushed: the client sees EOF mid-stream.
		panic(http.ErrAbortHandler)
	}
	w.armed = true
	w.ResponseWriter.(http.Flusher).Flush()
}

func (h *abortingStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/stats" && r.URL.Query().Get("raw") == "" &&
		len(r.URL.Path) > len("/stream") && r.URL.Path[len(r.URL.Path)-len("/stream"):] == "/stream" {
		if h.streams.Add(1) == 1 {
			h.inner.ServeHTTP(&abortAfterFlush{ResponseWriter: w}, r)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

func TestStreamReconnectAfterDrop(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	flaky := &abortingStream{inner: service.New(context.Background(), eng, st)}
	ts := httptest.NewServer(flaky)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithBackoff(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	sub, err := c.Submit(ctx, []engine.JobSpec{
		{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 2000}},
		{Simpoint: "mcf", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 2000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the submission finish so the first (aborted) connection replays
	// events and then dies before "done".
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, err := c.Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	seen := map[int]int{}
	if err := c.Stream(ctx, sub.ID, func(ev api.JobEvent) { seen[ev.Index]++ }); err != nil {
		t.Fatalf("stream with reconnect: %v", err)
	}
	if h := flaky.streams.Load(); h < 2 {
		t.Fatalf("stream was never dropped and retried (%d connections)", h)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("events not delivered exactly once: %v", seen)
	}
}

// Version-mismatched and malformed server responses are rejected with
// typed errors instead of being half-decoded.
func TestServerResponseValidation(t *testing.T) {
	ctx := context.Background()

	// Wrong protocol version.
	wrongVer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version+1))
		fmt.Fprint(w, `{}`)
	}))
	t.Cleanup(wrongVer.Close)
	c1, _ := client.New(wrongVer.URL)
	if _, err := c1.Stats(ctx); !errors.Is(err, client.ErrVersionMismatch) {
		t.Errorf("wrong version accepted: %v", err)
	}
	if err := c1.Health(ctx); !errors.Is(err, client.ErrVersionMismatch) {
		t.Errorf("health ignored version: %v", err)
	}

	// No version header at all (not a clusterd server).
	unversioned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"sub-1","keys":[""],"total":1}`)
	}))
	t.Cleanup(unversioned.Close)
	c2, _ := client.New(unversioned.URL)
	if _, err := c2.Submit(ctx, []engine.JobSpec{{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP"}}}); !errors.Is(err, client.ErrVersionMismatch) {
		t.Errorf("unversioned response accepted: %v", err)
	}

	// Right version, garbage JSON body.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		fmt.Fprint(w, `{"id": 42`)
	}))
	t.Cleanup(garbage.Close)
	c3, _ := client.New(garbage.URL)
	if _, err := c3.Stats(ctx); err == nil || errors.Is(err, client.ErrVersionMismatch) {
		t.Errorf("garbage body: %v", err)
	}

	// Right version, garbage SSE event payload: Stream must fail cleanly,
	// not call fn with junk.
	badSSE := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: result\ndata: {not json}\n\n")
	}))
	t.Cleanup(badSSE.Close)
	c4, _ := client.New(badSSE.URL, client.WithBackoff(time.Millisecond, 2*time.Millisecond), client.WithRetries(1))
	calls := 0
	if err := c4.Stream(ctx, "sub-1", func(api.JobEvent) { calls++ }); err == nil {
		t.Error("garbage SSE accepted")
	}
	if calls != 0 {
		t.Errorf("fn called %d times on garbage events", calls)
	}

	// An undecodable result blob (wrong codec version) errors.
	badBlob := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		w.Write([]byte{0xC5, 99, 2, 0, 0})
	}))
	t.Cleanup(badBlob.Close)
	c5, _ := client.New(badBlob.URL)
	if _, err := c5.Result(ctx, "k"); !errors.Is(err, engine.ErrCodecVersion) {
		t.Errorf("bad blob error: %v", err)
	}

	// Streaming an unknown submission is a terminal API error — no retry
	// storm against a 404.
	_, real, _ := startServer(t)
	var apiErr *api.Error
	if err := real.Stream(ctx, "sub-404", func(api.JobEvent) {}); !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Errorf("unknown submission stream: %v", err)
	}

	if _, err := client.New("not a url"); err == nil {
		t.Error("bad base URL accepted")
	}
}

// The SDK attaches the configured bearer token on every path — JSON
// round trips, the raw result fetch and the SSE stream — and without it
// surfaces the typed unauthorized error instead of retrying.
func TestClientBearerToken(t *testing.T) {
	st := store.NewTiered(store.NewMemory(64<<20), store.NewMemory(64<<20))
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.SetToken("sesame")
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	ctx := context.Background()

	locked, _ := client.New(ts.URL)
	var apiErr *api.Error
	if _, err := locked.Stats(ctx); !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("tokenless stats error: %v", err)
	}
	if err := locked.Stream(ctx, "sub-1", func(api.JobEvent) {}); !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnauthorized {
		t.Fatalf("tokenless stream error: %v", err)
	}
	// Health stays open so fleet liveness probes work without credentials.
	if err := locked.Health(ctx); err != nil {
		t.Fatalf("health demanded credentials: %v", err)
	}

	c, err := client.New(ts.URL, client.WithToken("sesame"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, []engine.JobSpec{
		{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}, Opts: engine.OptionsSpec{NumUops: 2000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := c.Stream(ctx, sub.ID, func(api.JobEvent) { events++ }); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Fatalf("streamed %d events, want 1", events)
	}
	if _, err := c.Result(ctx, sub.Keys[0]); err != nil {
		t.Fatalf("authenticated raw fetch: %v", err)
	}
}

// Submit retries 429s within its budget, honoring the server's
// Retry-After when given, and surfaces the typed rejection — hint
// attached — when the budget runs out.
func TestSubmitRetriesRateLimit(t *testing.T) {
	ctx := context.Background()
	specs := []engine.JobSpec{{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}}}

	var attempts atomic.Int64
	relenting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		if attempts.Add(1) < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"code":%q,"message":"slow down"}`, api.CodeRateLimited)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"sub-1","keys":["k"],"total":1}`)
	}))
	t.Cleanup(relenting.Close)
	c, err := client.New(relenting.URL, client.WithBackoff(time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatalf("submit through transient 429s: %v", err)
	}
	if sub.ID != "sub-1" || attempts.Load() != 3 {
		t.Fatalf("id=%q after %d attempts, want sub-1 after 3", sub.ID, attempts.Load())
	}

	// Budget zero: the rejection surfaces immediately with the parsed
	// Retry-After hint, and no retry fires.
	var hard atomic.Int64
	wall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hard.Add(1)
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"code":%q,"message":"quota full"}`, api.CodeQuotaExceeded)
	}))
	t.Cleanup(wall.Close)
	c2, err := client.New(wall.URL, client.WithSubmitRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *api.Error
	if _, err := c2.Submit(ctx, specs); !errors.As(err, &apiErr) ||
		apiErr.Code != api.CodeQuotaExceeded || apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("exhausted budget error: %v", err)
	}
	if hard.Load() != 1 {
		t.Fatalf("server saw %d attempts with a zero budget, want 1", hard.Load())
	}
}

// Priority and deadline submit options ride the wire: priority in the
// request body, the deadline as the api.DeadlineHeader header.
func TestSubmitPriorityAndDeadlineOnWire(t *testing.T) {
	var gotPriority, gotDeadline string
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		gotPriority, gotDeadline = req.Priority, r.Header.Get(api.DeadlineHeader)
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"sub-1","keys":["k"],"total":1}`)
	}))
	t.Cleanup(echo.Close)
	c, err := client.New(echo.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(context.Background(),
		[]engine.JobSpec{{Simpoint: "gzip-1", Setup: engine.SetupSpec{Kind: "OP", NumClusters: 2}}},
		client.WithPriority("bulk"), client.WithDeadline(1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if gotPriority != "bulk" || gotDeadline != "1500" {
		t.Fatalf("wire carried priority=%q deadline=%q, want bulk/1500", gotPriority, gotDeadline)
	}
}
