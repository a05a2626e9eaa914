package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersim/client"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/sim"
	"clustersim/internal/workload"
)

// A Runner batch is one submission and one stream: every result arrives
// inside its completion event, so no job costs a /v1/results round trip,
// and the decoded results are exactly what a fetch by key returns.
func TestRunnerResultsArriveInEvents(t *testing.T) {
	ts, _, _ := startServer(t)
	var mu sync.Mutex
	calls := map[string]int{}
	c, err := client.New(ts.URL, client.WithCallObserver(func(route string, _ int, _ time.Duration) {
		mu.Lock()
		calls[route]++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := engine.RunOptions{NumUops: 3000}
	jobs := []engine.Job{
		{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2), Opts: opts},
		{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupVC(2, 2), Opts: opts},
		{Simpoint: workload.ByName("mcf"), Setup: sim.SetupOP(2), Opts: opts},
	}
	got := make([]*engine.Result, len(jobs))
	for jr := range client.NewRunner(c).Stream(ctx, jobs) {
		if jr.Result.Err != nil {
			t.Fatalf("job %d: %v", jr.Index, jr.Result.Err)
		}
		got[jr.Index] = jr.Result
	}

	mu.Lock()
	submits, fetches := calls["/v1/jobs"], calls["/v1/results"]
	mu.Unlock()
	if submits != 1 || fetches != 0 {
		t.Errorf("runner made %d submissions and %d result fetches, want 1 and 0", submits, fetches)
	}

	for i, job := range jobs {
		if got[i].Simpoint != job.Simpoint {
			t.Errorf("job %d: result not re-bound to the submitted simpoint", i)
		}
		key, ok := engine.ResultKey(job)
		if !ok {
			t.Fatalf("job %d has no result key", i)
		}
		want, err := c.Result(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		want.Simpoint = job.Simpoint
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("job %d: streamed result differs from the fetched one:\nstreamed %+v\nfetched  %+v", i, got[i], want)
		}
	}
}

// A success event without its result is a protocol fault of the server,
// not a job failure: the job fails with an error that is no JobError, and
// the runner does not fall back to fetching the result by key.
func TestRunnerSuccessEventWithoutResult(t *testing.T) {
	var fetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"sub-1","keys":["k"],"total":1}`)
		case r.URL.Path == "/v1/jobs/sub-1/stream":
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "event: result\ndata: {\"index\":0,\"simpoint\":\"gzip-1\",\"setup\":\"OP\",\"key\":\"k\",\"ipc\":1.5,\"cycles\":2000}\n\n")
			fmt.Fprint(w, "event: done\ndata: {\"completed\":1}\n\n")
		case r.URL.Path == "/v1/results":
			fetches.Add(1)
			http.NotFound(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Simpoint: workload.ByName("gzip-1"), Setup: sim.SetupOP(2),
		Opts: engine.RunOptions{NumUops: 3000}}
	res := client.NewRunner(c).Run(context.Background(), job)
	var jobErr *client.JobError
	if res.Err == nil || errors.As(res.Err, &jobErr) {
		t.Errorf("success event without a result gave error %v, want a protocol error", res.Err)
	}
	if res.Simpoint != job.Simpoint || res.Setup != job.Setup.Label {
		t.Errorf("failed result identifies %v/%s, want the submitted job", res.Simpoint, res.Setup)
	}
	if n := fetches.Load(); n != 0 {
		t.Errorf("runner fetched /v1/results %d times", n)
	}
}
