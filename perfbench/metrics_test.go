package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP clusterd_engine_simulations_total Pipeline executions.
# TYPE clusterd_engine_simulations_total counter
clusterd_engine_simulations_total 12
clusterd_store_bytes{tier="all"} 4096
clusterd_http_request_seconds_bucket{route="/v1/jobs",code="202",le="+Inf"} 3
clusterd_http_request_seconds_sum{route="/v1/jobs",code="202"} 0.006
clusterd_http_request_seconds_count{route="/v1/jobs",code="202"} 3
clusterd_http_request_seconds_sum{route="/v1/jobs",code="400"} 0.002
clusterd_http_request_seconds_count{route="/v1/jobs",code="400"} 1
clusterd_http_request_seconds_sum{route="/v1/jobs/{id}/stream",code="200"} 0.5
clusterd_http_request_seconds_count{route="/v1/jobs/{id}/stream",code="200"} 4
clusterd_engine_stage_seconds_sum{stage="execute"} 1.5
clusterd_engine_stage_seconds_count{stage="execute"} 12
`

func parse(t *testing.T, text string) counters {
	t.Helper()
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseMetrics(t *testing.T) {
	c := parse(t, exposition)
	if got := c["clusterd_engine_simulations_total"]; got != 12 {
		t.Errorf("simulations = %v", got)
	}
	if got := c[`clusterd_http_request_seconds_bucket{route="/v1/jobs",code="202",le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %v", got)
	}
	if _, err := parseMetrics(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseMetrics(strings.NewReader("name{a=\"b\"} x\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestMetricDeltas(t *testing.T) {
	before := parse(t, exposition)
	after := parse(t, strings.NewReplacer(
		"clusterd_engine_simulations_total 12", "clusterd_engine_simulations_total 20",
		`clusterd_store_bytes{tier="all"} 4096`, `clusterd_store_bytes{tier="all"} 1024`,
		`code="202"} 0.006`, `code="202"} 0.016`,
		`{route="/v1/jobs",code="202"} 3`, `{route="/v1/jobs",code="202"} 8`,
	).Replace(exposition))
	d := after.sub(before)
	if got := d["clusterd_engine_simulations_total"]; got != 8 {
		t.Errorf("simulations delta = %v, want 8", got)
	}
	// A gauge reports its current value, not a difference.
	if got := d[`clusterd_store_bytes{tier="all"}`]; got != 1024 {
		t.Errorf("store bytes = %v, want 1024", got)
	}
	// The /v1/jobs route mean covers every status code, and only that
	// route: 0.010 s over 5 calls.
	if got := serverMean(d, "/v1/jobs"); got < 1.999 || got > 2.001 {
		t.Errorf("submit mean = %v ms, want 2", got)
	}
	if got := serverMean(d, "/v1/jobs/{id}/stream"); got != 0 {
		t.Errorf("stream mean over no calls = %v, want 0", got)
	}
	if got := stageSum(before, "execute"); got != 1.5 {
		t.Errorf("execute busy = %v", got)
	}
}

func TestCountersScaleAndAdd(t *testing.T) {
	a := counters{"x_total": 10, `clusterd_store_bytes{tier="all"}`: 5}
	b := counters{"x_total": 1, `clusterd_store_bytes{tier="all"}`: 7}
	got := a.scaled(0.5).plus(b)
	if got["x_total"] != 6 || got[`clusterd_store_bytes{tier="all"}`] != 7 {
		t.Errorf("scaled+plus = %v", got)
	}
}

func TestClientOverheadLeavesOutTheStream(t *testing.T) {
	// Two jobs. Each submit and fetch takes 1 ms at the client and
	// 0.75 ms in the handler. The client sees each stream for 1 ms (to
	// its headers) while the handler streams for 50 ms of simulation,
	// which must not make the overhead negative.
	c := counters{
		`client_seconds_sum{route="/v1/jobs"}`:                                       0.002,
		`client_seconds_count{route="/v1/jobs"}`:                                     2,
		`client_seconds_sum{route="/v1/jobs/{id}/stream"}`:                           0.002,
		`client_seconds_count{route="/v1/jobs/{id}/stream"}`:                         2,
		`client_seconds_sum{route="/v1/results"}`:                                    0.002,
		`client_seconds_count{route="/v1/results"}`:                                  2,
		`clusterd_http_request_seconds_sum{route="/v1/jobs",code="202"}`:             0.0015,
		`clusterd_http_request_seconds_sum{route="/v1/jobs/{id}/stream",code="200"}`: 0.1,
		`clusterd_http_request_seconds_sum{route="/v1/results",code="200"}`:          0.0015,
	}
	if got := clientOverhead(c); got < 0.2499 || got > 0.2501 {
		t.Errorf("client overhead = %v ms, want 0.25", got)
	}
}
