package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestChaosExemptsScrapes serves a -chaos schedule that fails every
// request: liveness probes and /metrics scrapes must still answer, or a
// chaos run cannot read back what the daemon did, while every other
// route is aborted.
func TestChaosExemptsScrapes(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "served "+r.URL.Path)
	})
	h, err := chaosHandler(inner, "seed=1,error=1")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s under error=1: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "served "+path {
			t.Errorf("%s under error=1: %d %q", path, resp.StatusCode, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/stats"); err == nil {
		resp.Body.Close()
		t.Errorf("/v1/stats under error=1 answered %d; want an aborted connection", resp.StatusCode)
	}
	if _, err := chaosHandler(inner, "error=2"); err == nil {
		t.Error("an out-of-range schedule was accepted")
	}
}
