package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"clustersim/internal/api"
	"clustersim/internal/store"
)

// scrapeMetric fetches /metrics and returns the value of an exactly-named
// series (including any label set), failing the test when absent.
func scrapeMetric(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("unparsable metric line %q", line)
		}
		return v
	}
	t.Fatalf("metric %s not exposed", series)
	return 0
}

// readStream consumes one SSE connection fully, returning the raw data
// payloads of the result events in arrival order.
func readStream(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payloads []string
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				return payloads
			}
			payloads = append(payloads, strings.TrimPrefix(line, "data: "))
		}
	}
	t.Fatal("stream ended without done")
	return nil
}

// TestSSEFanoutEncodeOnce pins the encode-once contract: a submission's
// events are JSON-marshaled exactly once each, no matter how many
// subscribers replay the stream, and every subscriber sees byte-identical
// frames.
func TestSSEFanoutEncodeOnce(t *testing.T) {
	ts, _, _ := startServer(t)

	body := `{"jobs":[
		{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":3000}},
		{"simpoint":"gzip-1","setup":{"kind":"OB","clusters":2},"opts":{"num_uops":3000}},
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
	waitDone(t, ts.URL, sub.ID)

	const subscribers = 6
	streams := make([][]string, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = readStream(t, ts.URL, sub.ID)
		}(i)
	}
	wg.Wait()

	for i, payloads := range streams {
		if len(payloads) != 3 {
			t.Fatalf("subscriber %d saw %d events, want 3", i, len(payloads))
		}
		for j := range payloads {
			if payloads[j] != streams[0][j] {
				t.Errorf("subscriber %d event %d differs: %q vs %q",
					i, j, payloads[j], streams[0][j])
			}
		}
	}

	if marshals := scrapeMetric(t, ts.URL, "clusterd_sse_marshals_total"); marshals != 3 {
		t.Errorf("sse marshals = %g, want exactly one per event (3) regardless of %d subscribers",
			marshals, subscribers)
	}
	if frames := scrapeMetric(t, ts.URL, "clusterd_sse_frames_total"); frames != 3*subscribers {
		t.Errorf("sse frames = %g, want %d", frames, 3*subscribers)
	}
	if bytes := scrapeMetric(t, ts.URL, "clusterd_sse_bytes_total"); bytes <= 0 {
		t.Errorf("sse bytes = %g, want > 0", bytes)
	}
}

// TestResultETagNotModified pins the 304 protocol: results carry a strong
// content-derived ETag, and a warm client replaying it skips store read
// and body on both the JSON and raw representations.
func TestResultETagNotModified(t *testing.T) {
	ts, _, st := startServer(t)

	body := `{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":3000}}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)
	key := sub.Keys[0]

	fetch := func(rawQuery, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet,
			ts.URL+"/v1/results?"+rawQuery+"key="+url.QueryEscape(key), nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cold := fetch("", "")
	coldBody, _ := io.ReadAll(cold.Body)
	cold.Body.Close()
	if cold.StatusCode != http.StatusOK || len(coldBody) == 0 {
		t.Fatalf("cold fetch: %d, %d body bytes", cold.StatusCode, len(coldBody))
	}
	etag := cold.Header.Get("ETag")
	if etag != `"`+store.Addr(key)+`"` {
		t.Fatalf("etag = %q, want quoted content address", etag)
	}

	getsBefore := st.Stats().Hits + st.Stats().Misses
	warm := fetch("", etag)
	warmBody, _ := io.ReadAll(warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusNotModified || len(warmBody) != 0 {
		t.Fatalf("warm fetch: %d, %d body bytes, want 304 with no body",
			warm.StatusCode, len(warmBody))
	}
	if warm.Header.Get("ETag") != etag {
		t.Errorf("304 lost the etag: %q", warm.Header.Get("ETag"))
	}
	if gets := st.Stats().Hits + st.Stats().Misses; gets != getsBefore {
		t.Errorf("304 path read the store (%d Gets)", gets-getsBefore)
	}

	// The raw representation honors the protocol too, and list syntax
	// matches.
	rawResp := fetch("raw=1&", `W/"bogus", `+etag)
	rawResp.Body.Close()
	if rawResp.StatusCode != http.StatusNotModified {
		t.Errorf("raw fetch with matching etag: %d, want 304", rawResp.StatusCode)
	}

	// A stale validator still gets the full body.
	stale := fetch("", `"deadbeef"`)
	staleBody, _ := io.ReadAll(stale.Body)
	stale.Body.Close()
	if stale.StatusCode != http.StatusOK || len(staleBody) == 0 {
		t.Errorf("stale etag fetch: %d, %d body bytes", stale.StatusCode, len(staleBody))
	}

	if n := scrapeMetric(t, ts.URL, "clusterd_result_not_modified_total"); n != 2 {
		t.Errorf("not-modified counter = %g, want 2", n)
	}

	// The serving block travels on /v1/stats too.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats api.StatsResponse
	err = json.NewDecoder(statsResp.Body).Decode(&stats)
	statsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Serving.NotModified != 2 {
		t.Errorf("stats serving block = %+v, want 2 not-modified", stats.Serving)
	}
}

// TestMetricsServingFamilies asserts the serving-path counters of
// encode-once streaming and conditional fetches are scrapable.
func TestMetricsServingFamilies(t *testing.T) {
	ts, _, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	text := string(blob)
	for _, series := range []string{
		"clusterd_sse_marshals_total",
		"clusterd_sse_frames_total",
		"clusterd_sse_bytes_total",
		"clusterd_result_not_modified_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output missing %s", series)
		}
	}
}

// TestResultEventsCarryEncodedResult pins the v10 event contract: a
// successful job's event carries exactly the blob GET /v1/results serves
// raw for its key, a replay after completion and the status route return
// the same events, and a failed job's event carries no result.
func TestResultEventsCarryEncodedResult(t *testing.T) {
	ts, _, _ := startServer(t)

	body := `{"jobs":[
		{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":20000}},
		{"simpoint":"mcf","setup":{"kind":"VC","num_vc":2,"clusters":2},"opts":{"num_uops":20000}}
	]}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	live := readStream(t, ts.URL, sub.ID)
	if len(live) != 2 {
		t.Fatalf("live stream carried %d events, want 2", len(live))
	}
	events := make([]api.JobEvent, len(live))
	for i, payload := range live {
		ev := &events[i]
		if err := json.Unmarshal([]byte(payload), ev); err != nil {
			t.Fatal(err)
		}
		if ev.Error != "" || len(ev.Result) == 0 {
			t.Fatalf("event %d: error %q, %d result bytes", i, ev.Error, len(ev.Result))
		}
		rr, err := http.Get(ts.URL + "/v1/results?raw=1&key=" + url.QueryEscape(ev.Key))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(rr.Body)
		rr.Body.Close()
		if err != nil || rr.StatusCode != http.StatusOK {
			t.Fatalf("raw fetch of %s: %d %v", ev.Key, rr.StatusCode, err)
		}
		if !bytes.Equal(ev.Result, blob) {
			t.Errorf("event %d result (%d bytes) differs from the stored blob (%d bytes)",
				i, len(ev.Result), len(blob))
		}
	}

	// The submission is done: a replay carries the same frames, and the
	// status route decodes them into the same events.
	if replay := readStream(t, ts.URL, sub.ID); !slices.Equal(replay, live) {
		t.Errorf("replay differs from the live stream:\nreplay %q\nlive   %q", replay, live)
	}
	var status api.StatusResponse
	mustGetJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &status)
	if !status.Done || status.Total != 2 || status.Completed != 2 {
		t.Errorf("status: done %v, %d of %d", status.Done, status.Completed, status.Total)
	}
	if !reflect.DeepEqual(status.Results, events) {
		t.Errorf("status results differ from the streamed events:\nstatus %+v\nstream %+v",
			status.Results, events)
	}

	// Jobs past a 1 ms deadline fail; their events carry no result.
	resp, raw = postJobs(t, ts.URL, batchBody(3, 80001, ""), map[string]string{api.DeadlineHeader: "1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	failed := readStream(t, ts.URL, sub.ID)
	if len(failed) != 3 {
		t.Fatalf("failed batch streamed %d events, want 3", len(failed))
	}
	for i, payload := range failed {
		var ev api.JobEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Error == "" || strings.Contains(payload, `"result"`) {
			t.Errorf("failed event %d: %s", i, payload)
		}
	}
}
