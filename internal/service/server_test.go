package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// startServer builds a clusterd-shaped stack: tiered memory-over-disk
// store, one engine writing through to it, the HTTP API on top.
func startServer(t *testing.T) (*httptest.Server, *engine.Engine, store.Store) {
	t.Helper()
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	ts := httptest.NewServer(service.New(context.Background(), eng, st))
	t.Cleanup(ts.Close)
	return ts, eng, st
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

// Drive a two-job submission end-to-end over HTTP: submit, stream every
// completion as SSE, fetch a result by key, check stats, and confirm a
// resubmission is served from the result store without simulating.
func TestSubmitStreamFetchRoundTrip(t *testing.T) {
	ts, eng, _ := startServer(t)

	body := `{"jobs":[
		{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":3000}},
		{"simpoint":"gzip-1","setup":{"kind":"VC","num_vc":2,"clusters":2},"opts":{"num_uops":3000}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Total != 2 || len(sub.Keys) != 2 || sub.Keys[0] == "" || sub.Keys[1] == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	// Stream until "done": every job must arrive exactly once.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	seen := map[int]api.JobEvent{}
	scanner := bufio.NewScanner(streamResp.Body)
	var eventType string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if eventType == "done" {
				goto streamed
			}
			var ev api.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if _, dup := seen[ev.Index]; dup {
				t.Errorf("job %d streamed twice", ev.Index)
			}
			seen[ev.Index] = ev
		}
	}
	t.Fatal("stream ended without a done event")
streamed:
	if len(seen) != 2 {
		t.Fatalf("streamed %d events, want 2", len(seen))
	}
	for i, ev := range seen {
		if ev.Error != "" || ev.Cycles == 0 || ev.IPC == 0 {
			t.Errorf("job %d event: %+v", i, ev)
		}
		if ev.Key != sub.Keys[ev.Index] {
			t.Errorf("job %d key mismatch: %q vs %q", i, ev.Key, sub.Keys[ev.Index])
		}
	}
	if seen[0].Setup != "OP" || seen[1].Setup != "VC" {
		t.Errorf("setups: %q, %q", seen[0].Setup, seen[1].Setup)
	}

	// Status endpoint agrees.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status api.StatusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !status.Done || status.Completed != 2 || status.Total != 2 {
		t.Errorf("status: %+v", status)
	}

	// Fetch one result by its content key.
	resultURL := ts.URL + "/v1/results?key=" + url.QueryEscape(sub.Keys[1])
	resp3, err := http.Get(resultURL)
	if err != nil {
		t.Fatal(err)
	}
	var res api.ResultResponse
	if err := json.NewDecoder(resp3.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d", resp3.StatusCode)
	}
	if res.Simpoint != "gzip-1" || res.Setup != "VC" || res.Cycles != seen[1].Cycles {
		t.Errorf("fetched result: %+v", res)
	}

	// Stats reflect the two simulations and the tiered store layout.
	resp4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsResponse
	if err := json.NewDecoder(resp4.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if stats.Engine.Simulations != 2 {
		t.Errorf("stats: %d simulations, want 2", stats.Engine.Simulations)
	}
	if stats.Memory == nil || stats.Disk == nil || stats.Disk.Entries != 2 {
		t.Errorf("tiered store stats: %+v", stats)
	}

	// A resubmission of the same batch completes from the cache — the
	// engine must not simulate again.
	resp5, raw5 := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp5.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp5.StatusCode, raw5)
	}
	var sub2 api.SubmitResponse
	if err := json.Unmarshal(raw5, &sub2); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub2.ID)
	if sims := eng.Stats().Simulations; sims != 2 {
		t.Errorf("resubmission simulated: %d total simulations, want 2", sims)
	}
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status api.StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("submission %s never finished", id)
}

// A single bare spec (no jobs array) is accepted, and bad requests fail
// with useful errors instead of queueing garbage.
func TestSubmitValidation(t *testing.T) {
	ts, _, _ := startServer(t)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bare spec rejected: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	for name, body := range map[string]string{
		"unknown simpoint": `{"simpoint":"nope","setup":{"kind":"OP"}}`,
		"unknown kind":     `{"simpoint":"mcf","setup":{"kind":"WAT"}}`,
		"empty":            `{}`,
		"not json":         `hello`,
		// Unknown fields are refused, typos included; max_parallel is one
		// since protocol v9.
		"unknown field": `{"maxparallel":1,"jobs":[{"simpoint":"mcf","setup":{"kind":"OP"}}]}`,
		"max_parallel":  `{"max_parallel":1,"jobs":[{"simpoint":"mcf","setup":{"kind":"OP"}}]}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, raw)
		}
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/sub-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown submission: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/results?key=absent"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent result: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// Every setup field and run option is validated at submission: a spec
// that would panic a compiler pass (a negative num_vc sizes its tables
// negative) or that names a field its kind ignores answers 400
// bad_request, and the server stays up to run the next, good job to
// completion.
func TestSubmitRejectsBadSetups(t *testing.T) {
	ts, _, _ := startServer(t)
	for _, setup := range []string{
		`{"kind":"VC","num_vc":-1}`,
		`{"kind":"VC-comm","num_vc":-1}`,
		`{"kind":"VC","num_vc":33}`,
		`{"kind":"OB","clusters":-1}`,
		`{"kind":"VC","max_chain_len":-3}`,
		`{"kind":"RHOP","region_max_ops":-1}`,
		`{"kind":"VC","clusters":4,"num_vc":2,"region_max_ops":16}`,
		`{"kind":"OP","max_chain_len":8}`,
		`{"kind":"ADV","region_max_ops":16}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", `{"simpoint":"crafty","setup":`+setup+`}`)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d, body %s", setup, resp.StatusCode, raw)
		}
	}
	// A negative trace length would size the trace negative the same way.
	for _, opts := range []string{`{"num_uops":-5}`, `{"warmup_uops":-7}`} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", `{"simpoint":"crafty","setup":{"kind":"OP"},"opts":`+opts+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", opts, resp.StatusCode, raw)
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"VC","num_vc":2},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good spec rejected: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var status api.StatusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Results) != 1 || status.Results[0].Error != "" || status.Results[0].Cycles == 0 {
		t.Errorf("good job after bad specs: %+v", status.Results)
	}
}

// Every machine knob is validated at submission: one out of bound
// answers 400 bad_request, and the server stays up to run a good
// overridden machine to completion.
func TestSubmitRejectsBadMachines(t *testing.T) {
	ts, _, _ := startServer(t)
	for _, machine := range []string{
		`{"link_latency":-1}`, `{"link_latency":65}`,
		`{"topology":"mesh"}`,
		`{"link_bandwidth":-1}`, `{"link_bandwidth":17}`,
		`{"copy_issue":-1}`, `{"copy_issue":17}`,
		`{"iq":-1}`, `{"iq":513}`,
		`{"prefetch_degree":-2}`, `{"prefetch_degree":17}`,
		`{"issue_int":1}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs",
			`{"simpoint":"crafty","setup":{"kind":"OP"},"opts":{"machine":`+machine+`}}`)
		var e api.Error
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d, body %s", machine, resp.StatusCode, raw)
		}
	}

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"VC"},"opts":{"num_uops":2000,`+
			`"machine":{"link_latency":4,"topology":"ring","prefetch_degree":-1}}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good machine rejected: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var status api.StatusResponse
	if err := json.NewDecoder(resp2.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Results) != 1 || status.Results[0].Error != "" || status.Results[0].Cycles == 0 {
		t.Errorf("good machine after bad ones: %+v", status.Results)
	}
}

// Completed submissions are evicted beyond the retention bound so the
// daemon's registry doesn't grow with lifetime traffic; results stay
// fetchable by key.
func TestSubmissionRetention(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.SetRetention(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body := `{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`
	var ids []string
	var keys []string
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, raw)
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		waitDone(t, ts.URL, sub.ID)
		ids = append(ids, sub.ID)
		keys = append(keys, sub.Keys[0])
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest submission survived retention: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/" + ids[2]); resp.StatusCode != http.StatusOK {
		t.Errorf("newest submission evicted: %d", resp.StatusCode)
	}
	// The evicted submission's result is still served by key.
	resp, err := http.Get(ts.URL + "/v1/results?key=" + url.QueryEscape(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("evicted submission's result not fetchable: %d", resp.StatusCode)
	}
}

// Results persist across service restarts: a new engine+store over the
// same directory serves a previously computed result by key without
// simulating, including to the raw-blob codec path.
func TestResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() (*httptest.Server, *engine.Engine) {
		disk, err := store.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := store.NewTiered(store.NewMemory(64<<20), disk)
		eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
		ts := httptest.NewServer(service.New(context.Background(), eng, st))
		t.Cleanup(ts.Close)
		return ts, eng
	}

	ts1, _ := build()
	resp, raw := postJSON(t, ts1.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"RHOP","clusters":2},"opts":{"num_uops":2500}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts1.URL, sub.ID)

	ts2, eng2 := build() // fresh process, same cache dir
	fetch := ts2.URL + "/v1/results?key=" + url.QueryEscape(sub.Keys[0])
	resp2, err := http.Get(fetch)
	if err != nil {
		t.Fatal(err)
	}
	var res api.ResultResponse
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || res.Setup != "RHOP" || res.Uops == 0 {
		t.Fatalf("restarted fetch: %d %+v", resp2.StatusCode, res)
	}

	rawResp, err := http.Get(fetch + "&raw=1")
	if err != nil {
		t.Fatal(err)
	}
	defer rawResp.Body.Close()
	var blob strings.Builder
	if _, err := bufio.NewReader(rawResp.Body).WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	if dec, err := engine.DecodeResult([]byte(blob.String())); err != nil || dec.Setup != "RHOP" {
		t.Errorf("raw blob decode: %v", err)
	}

	// Resubmitting against the new process simulates nothing.
	resp3, raw3 := postJSON(t, ts2.URL+"/v1/jobs",
		`{"simpoint":"crafty","setup":{"kind":"RHOP","clusters":2},"opts":{"num_uops":2500}}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp3.StatusCode, raw3)
	}
	var sub3 api.SubmitResponse
	if err := json.Unmarshal(raw3, &sub3); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts2.URL, sub3.ID)
	if st := eng2.Stats(); st.Simulations != 0 || st.StoreHits != 1 {
		t.Errorf("restarted engine stats: %+v", st)
	}
}

// Every error path — bad requests, unknown submissions, unknown routes,
// wrong methods — returns a JSON body with a stable machine-readable code
// and the right Content-Type; no path writes bare text.
func TestUniformJSONErrors(t *testing.T) {
	ts, _, _ := startServer(t)

	check := func(name string, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", name, ct)
		}
		if v := resp.Header.Get(api.VersionHeader); v != strconv.Itoa(api.Version) {
			t.Errorf("%s: version header %q", name, v)
		}
		var e api.Error
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: body not JSON: %v", name, err)
			return
		}
		if e.Code != wantCode || e.Message == "" {
			t.Errorf("%s: error body %+v, want code %q", name, e, wantCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	check("bad request", resp, http.StatusBadRequest, api.CodeBadRequest)

	resp, err = http.Get(ts.URL + "/v1/jobs/sub-999")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown submission", resp, http.StatusNotFound, api.CodeNotFound)

	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	check("unknown route", resp, http.StatusNotFound, api.CodeNotFound)

	resp, err = http.Get(ts.URL + "/v1/jobs") // GET on a POST-only route
	if err != nil {
		t.Fatal(err)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow header %q", allow)
	}
	check("wrong method", resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	check("POST on GET route", resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	resp, err = http.Get(ts.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	check("missing key", resp, http.StatusBadRequest, api.CodeBadRequest)

	// HEAD is served by GET handlers (load-balancer health probes).
	resp, err = http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /healthz: %d", resp.StatusCode)
	}
}

// gatedStore holds every Get of a key containing hold until release is
// closed, keeping a submission that needs such a key in flight.
type gatedStore struct {
	store.Store
	hold    string
	release chan struct{}
}

func (g gatedStore) Get(key string) ([]byte, bool) {
	if strings.Contains(key, g.hold) {
		<-g.release
	}
	return g.Store.Get(key)
}

// Completed submissions expire by age, on demand: with no later
// submission to complete, the next lookup past the TTL expires a
// completed one and counts it once, while an in-flight submission older
// than the TTL stays queryable. Results stay fetchable by key.
func TestSubmissionTTLSweep(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(store.NewMemory(64<<20), disk)
	gated := gatedStore{Store: st, hold: "|gzip-1|", release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gated.release) })
	t.Cleanup(release)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: gated})
	const ttl = 30 * time.Millisecond
	srv := service.New(context.Background(), eng, st)
	srv.SetTTL(ttl)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	submit := func(body string) api.SubmitResponse {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, raw)
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	status := func(id string) (int, api.StatusResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr api.StatusResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr
	}
	swept := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			if v, ok := strings.CutPrefix(scanner.Text(), "clusterd_submissions_swept_total "); ok {
				return v
			}
		}
		t.Fatal("metrics missing clusterd_submissions_swept_total")
		return ""
	}

	inflight := submit(`{"simpoint":"gzip-1","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	done := submit(`{"simpoint":"mcf","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	// The stream follows the submission to completion without a status
	// poll that could itself expire it.
	readStream(t, ts.URL, done.ID)
	time.Sleep(2 * ttl)

	for i := 0; i < 2; i++ {
		if code, _ := status(done.ID); code != http.StatusNotFound {
			t.Fatalf("lookup %d past the TTL: status %d, want 404", i, code)
		}
		if got := swept(); got != "1" {
			t.Errorf("after lookup %d: clusterd_submissions_swept_total %s, want 1", i, got)
		}
	}
	if code, sr := status(inflight.ID); code != http.StatusOK || sr.Done {
		t.Errorf("in-flight submission older than the TTL: status %d, %+v", code, sr)
	}

	// The result outlives its submission id.
	resp, err := http.Get(ts.URL + "/v1/results?key=" + url.QueryEscape(done.Keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("expired submission's result not fetchable: %d", resp.StatusCode)
	}

	// Let the held submission finish before the store's directory goes.
	release()
	readStream(t, ts.URL, inflight.ID)
}

// GET /metrics renders the engine and per-tier store counters in
// Prometheus text exposition format.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := startServer(t)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"gzip-1","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var b strings.Builder
	if _, err := bufio.NewReader(mresp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, want := range []string{
		"# TYPE clusterd_engine_simulations_total counter",
		"clusterd_engine_simulations_total 1",
		`clusterd_store_entries{tier="memory"}`,
		`clusterd_store_entries{tier="disk"} 1`,
		`clusterd_store_puts_total{tier="all"}`,
		"clusterd_submissions_retained 1",
		"# TYPE clusterd_engine_core_pool_hits_total counter",
		"clusterd_engine_core_pool_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A server started with a token answers every request that lacks it (or
// presents the wrong one) with a JSON 401 carrying the stable
// "unauthorized" code. /healthz stays open: orchestrator liveness probes
// cannot attach credentials.
func TestBearerTokenEnforced(t *testing.T) {
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	svc := service.New(context.Background(), eng, st)
	svc.SetToken("sesame")
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	get := func(path, auth string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		bufio.NewReader(resp.Body).WriteTo(&b)
		return resp, []byte(b.String())
	}

	for name, auth := range map[string]string{
		"no credentials": "",
		"wrong token":    "Bearer open",
		"wrong scheme":   "Basic sesame",
	} {
		resp, raw := get("/v1/stats", auth)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", name, resp.StatusCode)
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != api.CodeUnauthorized {
			t.Errorf("%s: error body %s", name, raw)
		}
		if resp.Header.Get(api.VersionHeader) == "" {
			t.Errorf("%s: 401 lost the version header", name)
		}
	}

	if resp, raw := get("/v1/stats", "Bearer sesame"); resp.StatusCode != http.StatusOK {
		t.Errorf("correct token refused: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := get("/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz demanded credentials: %d", resp.StatusCode)
	}

	// Submission requires the token too.
	resp, raw := postJSON(t, ts.URL+"/v1/jobs",
		`{"simpoint":"gzip-1","setup":{"kind":"OP"},"opts":{"num_uops":2000}}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated submit: %d %s", resp.StatusCode, raw)
	}
}

// TestSubmissionIDsUniqueAcrossRestarts stands two servers in for one
// daemon before and after a restart: each numbers its submissions from
// 1, yet their IDs must never collide, and a stream opened on the new
// process with the old process's ID must answer not_found rather than
// attach to whatever the new process numbered the same.
func TestSubmissionIDsUniqueAcrossRestarts(t *testing.T) {
	before, _, _ := startServer(t)
	after, _, _ := startServer(t)
	job := `{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":500}}`
	// Every accepted submission finishes before the test returns: its
	// result is still being written to the server's disk store, whose
	// temporary directory the test's cleanup removes.
	type accepted struct{ base, id string }
	var pending []accepted
	defer func() {
		for _, a := range pending {
			waitDone(t, a.base, a.id)
		}
	}()
	submit := func(ts *httptest.Server) string {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", job)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, raw)
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		pending = append(pending, accepted{ts.URL, sub.ID})
		return sub.ID
	}
	seen := map[string]bool{}
	var oldIDs []string
	for i := 0; i < 3; i++ {
		old, fresh := submit(before), submit(after)
		for _, id := range []string{old, fresh} {
			if seen[id] {
				t.Fatalf("submission ID %q minted twice", id)
			}
			seen[id] = true
		}
		oldIDs = append(oldIDs, old)
	}
	for _, id := range oldIDs {
		resp, err := http.Get(after.URL + "/v1/jobs/" + id + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		decodeErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || decodeErr != nil || e.Code != api.CodeNotFound {
			t.Errorf("streaming %s on the restarted server: status %d, body %+v (%v), want 404 not_found",
				id, resp.StatusCode, e, decodeErr)
		}
	}
}
