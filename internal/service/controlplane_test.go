package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// runQuickBatch submits a small batch and waits for completion by
// polling status; returns the result keys.
func runQuickBatch(t *testing.T, base string, n int) []string {
	t.Helper()
	var specs []string
	for i := 0; i < n; i++ {
		specs = append(specs, fmt.Sprintf(
			`{"simpoint":"gzip-%d","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":2000}}`, i+1))
	}
	resp, raw := postJSON(t, base+"/v1/jobs", `{"jobs":[`+strings.Join(specs, ",")+`]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	for {
		st, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var status api.StatusResponse
		json.NewDecoder(st.Body).Decode(&status)
		st.Body.Close()
		if status.Done {
			return sub.Keys
		}
	}
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil && err != io.EOF {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp
}

// GET /v1/keys pages through exactly the stored key set.
func TestKeysEndpoint(t *testing.T) {
	ts, _, _ := startServer(t)
	want := runQuickBatch(t, ts.URL, 5)
	sort.Strings(want)

	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 100 {
			t.Fatal("key paging did not terminate")
		}
		var page api.KeysResponse
		resp := getJSON(t, ts.URL+"/v1/keys?limit=2&cursor="+url.QueryEscape(cursor), &page)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keys page: %d", resp.StatusCode)
		}
		if len(page.Keys) > 2 {
			t.Fatalf("page of %d keys exceeds limit 2", len(page.Keys))
		}
		got = append(got, page.Keys...)
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("keys = %v, want %v", got, want)
	}

	// Malformed limit is a bad request, not a silent default.
	resp, err := http.Get(ts.URL + "/v1/keys?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=banana: %d, want 400", resp.StatusCode)
	}

	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Serving.KeyPages == 0 {
		t.Error("key pages not counted in serving stats")
	}
}

func doPut(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// A result computed on one worker and uploaded to another serves
// byte-identically there, and the second worker's engine treats it as a
// store hit — zero re-simulation, the property drains depend on.
func TestPutResultMigratesWithoutResimulating(t *testing.T) {
	src, _, _ := startServer(t)
	dst, dstEng, _ := startServer(t)

	keys := runQuickBatch(t, src.URL, 2)
	for _, key := range keys {
		resp, err := http.Get(src.URL + "/v1/results?key=" + url.QueryEscape(key) + "&raw=1")
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		if put := doPut(t, dst.URL+"/v1/results?key="+url.QueryEscape(key), blob); put.StatusCode != http.StatusNoContent {
			t.Fatalf("upload: %d", put.StatusCode)
		}

		// The migrated blob round-trips byte-identically.
		back, err := http.Get(dst.URL + "/v1/results?key=" + url.QueryEscape(key) + "&raw=1")
		if err != nil {
			t.Fatal(err)
		}
		blob2, _ := io.ReadAll(back.Body)
		back.Body.Close()
		if !bytes.Equal(blob, blob2) {
			t.Errorf("migrated blob differs for %s", key)
		}
	}

	// Re-running the same batch on the destination hits the warmed store.
	runQuickBatch(t, dst.URL, 2)
	if sims := dstEng.Stats().Simulations; sims != 0 {
		t.Errorf("destination simulated %d jobs despite warmed store", sims)
	}

	var stats api.StatsResponse
	getJSON(t, dst.URL+"/v1/stats", &stats)
	if stats.Serving.ResultUploads != int64(len(keys)) {
		t.Errorf("result uploads = %d, want %d", stats.Serving.ResultUploads, len(keys))
	}

	// Garbage is refused: a store of undecodable migrated blobs would
	// poison every future cache hit.
	if resp := doPut(t, dst.URL+"/v1/results?key=junk", []byte("not a result")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: %d, want 400", resp.StatusCode)
	}
	if resp := doPut(t, dst.URL+"/v1/results", []byte("x")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("keyless upload: %d, want 400", resp.StatusCode)
	}
}

func proposeRing(t *testing.T, base string, tr api.RingTransition) (*http.Response, api.RingView, api.Error) {
	t.Helper()
	body, _ := json.Marshal(tr)
	resp, err := http.Post(base+"/v1/ring", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var view api.RingView
	var apiErr api.Error
	if resp.StatusCode == http.StatusOK {
		json.Unmarshal(raw, &view)
	} else {
		json.Unmarshal(raw, &apiErr)
	}
	return resp, view, apiErr
}

func TestRingRegisterCAS(t *testing.T) {
	// A plain worker is not a coordinator.
	plain, _, _ := startServer(t)
	resp, err := http.Get(plain.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ring on plain worker: %d, want 404", resp.StatusCode)
	}

	st := store.NewMemory(0)
	eng := engine.New(engine.Options{Parallelism: 1, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.EnableCoordinator()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// A fresh register is empty at epoch 0.
	var view api.RingView
	getJSON(t, ts.URL+"/v1/ring", &view)
	if view.Epoch != 0 || len(view.Members) != 0 {
		t.Fatalf("fresh view: %+v", view)
	}

	// Seed two members through the CAS.
	resp, view, _ = proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 0, Action: api.RingAdd, URL: "http://w1"})
	if resp.StatusCode != http.StatusOK || view.Epoch != 1 {
		t.Fatalf("first add: %d, view %+v", resp.StatusCode, view)
	}
	resp, view, _ = proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 1, Action: api.RingAdd, URL: "http://w2"})
	if resp.StatusCode != http.StatusOK || view.Epoch != 2 || len(view.Members) != 2 {
		t.Fatalf("second add: %d, view %+v", resp.StatusCode, view)
	}

	// A stale base epoch is refused with epoch_conflict and changes nothing.
	resp, _, apiErr := proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 1, Action: api.RingDrain, URL: "http://w1"})
	if resp.StatusCode != http.StatusConflict || apiErr.Code != api.CodeEpochConflict {
		t.Fatalf("stale propose: %d code=%q", resp.StatusCode, apiErr.Code)
	}
	getJSON(t, ts.URL+"/v1/ring", &view)
	if view.Epoch != 2 {
		t.Fatalf("stale propose advanced the epoch to %d", view.Epoch)
	}

	// An invalid transition at the right epoch is a bad request.
	resp, _, apiErr = proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 2, Action: api.RingRemove, URL: "http://w1"})
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("remove-alive propose: %d code=%q", resp.StatusCode, apiErr.Code)
	}

	// Worker health is each runner's own observation: the register
	// refuses the old failure-driven actions as bad requests.
	for _, action := range []string{"mark_dead", "readmit"} {
		resp, _, apiErr = proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 2, Action: action, URL: "http://w1"})
		if resp.StatusCode != http.StatusBadRequest || apiErr.Code != api.CodeBadRequest {
			t.Fatalf("%s propose: %d code=%q, want 400 bad_request", action, resp.StatusCode, apiErr.Code)
		}
	}
	getJSON(t, ts.URL+"/v1/ring", &view)
	if view.Epoch != 2 {
		t.Fatalf("refused actions advanced the epoch to %d", view.Epoch)
	}

	// An idempotent no-op at the right epoch succeeds without advancing.
	resp, view, _ = proposeRing(t, ts.URL, api.RingTransition{BaseEpoch: 2, Action: api.RingAdd, URL: "http://w2"})
	if resp.StatusCode != http.StatusOK || view.Epoch != 2 {
		t.Fatalf("no-op add: %d epoch=%d", resp.StatusCode, view.Epoch)
	}

	// Counters: one conflict, two accepted transitions, epoch gauge live.
	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	sv := stats.Serving
	if sv.RingEpoch != 2 || sv.RingTransitions != 2 || sv.RingConflicts != 1 {
		t.Errorf("serving stats: epoch=%d transitions=%d conflicts=%d, want 2/2/1",
			sv.RingEpoch, sv.RingTransitions, sv.RingConflicts)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"clusterd_ring_epoch 2", "clusterd_ring_transitions_total 2", "clusterd_ring_conflicts_total 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
