package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clustersim/internal/store"
)

func TestParse(t *testing.T) {
	cfg, err := Parse("seed=7,latency=5ms,jitter=2ms,error=0.05,stall=0.01,stalldur=2s")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
		ErrorRate: 0.05, StallRate: 0.01, Stall: 2 * time.Second}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}

	if cfg, err := Parse(""); err != nil || cfg != (Config{}) {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	if cfg, err := Parse("stall=0.5"); err != nil || cfg.Stall != time.Second {
		t.Fatalf("stall without stalldur should default to 1s: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"latency", "bogus=1", "error=1.5", "latency=fast", "seed=x"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// The same seed draws the same fault schedule, draw for draw.
	cfg := Config{Seed: 42, Jitter: 10 * time.Millisecond, ErrorRate: 0.3, StallRate: 0.2, Stall: time.Second}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 200; i++ {
		da, fa := a.draw()
		db, fb := b.draw()
		if da != db || fa != fb {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, da, fa, db, fb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if s := a.Stats(); s.Hops != 200 || s.Errors == 0 || s.Stalls == 0 {
		t.Fatalf("200 draws at 30%%/20%% rates: %+v", s)
	}
}

func TestMiddlewareAbortsAndExempts(t *testing.T) {
	in := New(Config{Seed: 1, ErrorRate: 1}) // every non-exempt hop fails
	served := 0
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		io.WriteString(w, "ok")
	}), "/v1/results")
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	// Injected paths abort at the transport level — no valid response.
	if resp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
		t.Fatalf("injected request succeeded: %v", resp.Status)
	}
	if served != 0 {
		t.Fatal("handler ran for an aborted request")
	}
	// /healthz is always exempt; explicit prefixes too.
	for _, path := range []string{"/healthz", "/v1/results?key=k"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("exempt %s failed: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exempt %s: %d", path, resp.StatusCode)
		}
	}
	if served != 2 {
		t.Fatalf("handler served %d exempt requests, want 2", served)
	}
}

func TestRoundTripperInjects(t *testing.T) {
	in := New(Config{Seed: 1, ErrorRate: 1})
	rt := in.RoundTripper(roundTripFunc(func(r *http.Request) (*http.Response, error) {
		t.Fatal("inner transport reached through an injected failure")
		return nil, nil
	}))
	req := httptest.NewRequest(http.MethodGet, "http://worker/v1/stats", nil)
	if _, err := rt.RoundTrip(req); err == nil {
		t.Fatal("injected round trip succeeded")
	}

	// With injection off, the inner transport is reached unchanged.
	passthrough := New(Config{})
	inner := errors.New("inner")
	rt = passthrough.RoundTripper(roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return nil, inner
	}))
	if _, err := rt.RoundTrip(req); !errors.Is(err, inner) {
		t.Fatalf("passthrough altered the inner error: %v", err)
	}
}

func TestStoreInjectsMissesAndDrops(t *testing.T) {
	mem := store.NewMemory(1 << 20)
	mem.Put("k", []byte("blob"))

	lossy := New(Config{Seed: 1, ErrorRate: 1}).Store(mem)
	if _, ok := lossy.Get("k"); ok {
		t.Fatal("injected Get hit")
	}
	lossy.Put("dropped", []byte("x"))
	if _, ok := mem.Get("dropped"); ok {
		t.Fatal("injected Put reached the inner store")
	}

	clean := New(Config{}).Store(mem)
	if blob, ok := clean.Get("k"); !ok || string(blob) != "blob" {
		t.Fatalf("passthrough Get: %q, %v", blob, ok)
	}
	if clean.Stats().Puts != mem.Stats().Puts {
		t.Fatal("Stats not passed through")
	}
	// Key enumeration passes through the wrapper, so a fleet drain can
	// list a chaos-wrapped store.
	keys, next, err := clean.Keys(context.Background(), 0, "")
	if err != nil || next != "" || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("passthrough Keys = %q, %q, %v", keys, next, err)
	}
}

func TestMiddlewareLatency(t *testing.T) {
	in := New(Config{Seed: 1, Latency: 30 * time.Millisecond})
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("injected-latency request returned in %v", d)
	}
	if !in.Enabled() {
		t.Fatal("latency-only injector reports disabled")
	}
	if New(Config{Seed: 9}).Enabled() {
		t.Fatal("zero schedule reports enabled")
	}
}
