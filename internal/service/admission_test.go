package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"clustersim/internal/admission"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/service"
	"clustersim/internal/store"
)

// startLimitedServer is startServer with admission control installed.
func startLimitedServer(t *testing.T, limits admission.Limits, parallel int) *httptest.Server {
	t.Helper()
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: parallel, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.SetAdmission(admission.New(limits))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// postJobs submits a body with extra headers and returns the response
// plus its decoded error (nil on 2xx).
func postJobs(t *testing.T, base, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

const tinyJob = `{"simpoint":"gzip-1","setup":{"kind":"OP","clusters":2},"opts":{"num_uops":%d}}`

func batchBody(n, uops int, extra string) string {
	jobs := make([]string, n)
	for i := range jobs {
		// Distinct num_uops per job keeps result keys distinct, so the
		// engine's single-flight collapse can't merge them.
		jobs[i] = fmt.Sprintf(tinyJob, uops+i)
	}
	return `{"jobs":[` + strings.Join(jobs, ",") + `]` + extra + `}`
}

func TestSubmitRateLimited429(t *testing.T) {
	// Rate near zero: the initial burst of 2 is all a tenant ever gets.
	ts := startLimitedServer(t, admission.Limits{Rate: 0.001, Burst: 2}, 2)

	resp, raw := postJobs(t, ts.URL, batchBody(2, 2000, ""), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	resp, raw = postJobs(t, ts.URL, batchBody(2, 3000, ""), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch: %d %s, want 429", resp.StatusCode, raw)
	}
	var apiErr api.Error
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("429 body not an api.Error: %s", raw)
	}
	if apiErr.Code != api.CodeRateLimited {
		t.Fatalf("code = %q, want %q", apiErr.Code, api.CodeRateLimited)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	// The rejection is visible on /metrics with its reason label, and
	// the finished first batch released its in-flight slots.
	if v := scrapeMetric(t, ts.URL, `clusterd_admission_rejects_total{reason="rate_limited"}`); v < 1 {
		t.Fatalf("rate_limited rejects metric = %v, want >= 1", v)
	}
	var stats api.StatsResponse
	mustGetJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Admission == nil {
		t.Fatal("stats.Admission missing on a limited server")
	}
	if stats.Admission.InFlight != 0 {
		t.Fatalf("admission in_flight = %d after batch completion, want 0", stats.Admission.InFlight)
	}
	if stats.Admission.Admitted != 2 || stats.Admission.RejectedRate < 1 {
		t.Fatalf("admission stats: %+v", stats.Admission)
	}
}

func TestSubmitQuotaExceeded429(t *testing.T) {
	ts := startLimitedServer(t, admission.Limits{MaxInFlight: 1}, 2)

	// A batch larger than the quota can never be admitted.
	resp, raw := postJobs(t, ts.URL, batchBody(2, 2000, ""), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: %d %s, want 429", resp.StatusCode, raw)
	}
	var apiErr api.Error
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Code != api.CodeQuotaExceeded {
		t.Fatalf("code = %q (%v), want %q", apiErr.Code, err, api.CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Within quota is fine, and slots return as jobs finish.
	resp, raw = postJobs(t, ts.URL, batchBody(1, 2000, ""), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("within-quota batch: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)
	resp, raw = postJobs(t, ts.URL, batchBody(1, 5000, ""), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch after quota release: %d %s", resp.StatusCode, raw)
	}
}

func TestAdmissionPerTenantIsolation(t *testing.T) {
	ts := startLimitedServer(t, admission.Limits{Rate: 0.001, Burst: 1}, 2)

	if resp, raw := postJobs(t, ts.URL, batchBody(1, 2000, ""),
		map[string]string{api.TenantHeader: "flood"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("flood's first submit: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := postJobs(t, ts.URL, batchBody(1, 3000, ""),
		map[string]string{api.TenantHeader: "flood"}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood's second submit: %d, want 429", resp.StatusCode)
	}
	// A different tenant is unaffected by flood's exhausted bucket.
	if resp, raw := postJobs(t, ts.URL, batchBody(1, 4000, ""),
		map[string]string{api.TenantHeader: "calm"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("calm rejected because of flood: %d %s", resp.StatusCode, raw)
	}
}

func TestAdmissionTenantHeaderIgnoredUnderAuth(t *testing.T) {
	// With auth enabled the credential is the admission identity: a
	// client minting a fresh Clustersim-Tenant value per request must
	// not escape its token's bucket (that would defeat the limits
	// entirely).
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 2, ResultStore: st})
	srv := service.New(context.Background(), eng, st)
	srv.SetToken("sekrit")
	srv.SetAdmission(admission.New(admission.Limits{Rate: 0.001, Burst: 1}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	hdr := map[string]string{
		"Authorization":  "Bearer sekrit",
		api.TenantHeader: "mint-1",
	}
	if resp, raw := postJobs(t, ts.URL, batchBody(1, 2000, ""), hdr); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, raw)
	}
	hdr[api.TenantHeader] = "mint-2"
	if resp, _ := postJobs(t, ts.URL, batchBody(1, 3000, ""), hdr); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("header-minted tenant escaped the credential's bucket: %d, want 429", resp.StatusCode)
	}
}

func TestSubmitPriorityValidation(t *testing.T) {
	ts, _, _ := startServer(t)

	resp, raw := postJobs(t, ts.URL, batchBody(1, 2000, `,"priority":"urgent"`), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority: %d %s, want 400", resp.StatusCode, raw)
	}
	var apiErr api.Error
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("code = %q (%v), want bad_request", apiErr.Code, err)
	}

	for _, prio := range []string{"interactive", "bulk"} {
		resp, raw := postJobs(t, ts.URL, batchBody(1, 2000, `,"priority":"`+prio+`"`), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("priority %q rejected: %d %s", prio, resp.StatusCode, raw)
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		waitDone(t, ts.URL, sub.ID)
	}
}

func TestSubmitDeadlinePropagation(t *testing.T) {
	// One worker, three jobs too large to finish within 1ms: whichever
	// started is canceled at the deadline and the queued rest are shed
	// before execution. Every event must carry the stable code.
	st := store.NewMemory(64 << 20)
	eng := engine.New(engine.Options{Parallelism: 1, ResultStore: st})
	ts := httptest.NewServer(service.New(context.Background(), eng, st))
	t.Cleanup(ts.Close)

	resp, raw := postJobs(t, ts.URL, batchBody(3, 80000, ""),
		map[string]string{api.DeadlineHeader: "1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts.URL, sub.ID)

	var status api.StatusResponse
	mustGetJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &status)
	if len(status.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(status.Results))
	}
	for _, ev := range status.Results {
		if ev.Error == "" || ev.Code != api.CodeDeadlineExceeded {
			t.Fatalf("event %d: error=%q code=%q, want code %q",
				ev.Index, ev.Error, ev.Code, api.CodeDeadlineExceeded)
		}
	}
	// At least the queued jobs were shed before ever simulating.
	if v := scrapeMetric(t, ts.URL, "clusterd_engine_deadline_shed_total"); v < 1 {
		t.Fatalf("deadline_shed metric = %v, want >= 1", v)
	}
}

func TestSubmitDeadlineHeaderValidation(t *testing.T) {
	ts, _, _ := startServer(t)
	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		resp, raw := postJobs(t, ts.URL, batchBody(1, 2000, ""),
			map[string]string{api.DeadlineHeader: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: %d %s, want 400", bad, resp.StatusCode, raw)
		}
	}
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
