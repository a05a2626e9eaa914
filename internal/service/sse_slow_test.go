package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/store"
)

// TestSSESlowConsumerDisconnected pins the slow-subscriber contract: a
// subscriber that stops draining its connection is cut off once a frame
// write exceeds the SSE write timeout — counted in the disconnect
// metric — while a healthy subscriber of the same submission receives
// every frame. Before the bound existed, the stalled reader parked its
// subscription goroutine in w.Write for the submission's lifetime.
func TestSSESlowConsumerDisconnected(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	srv := New(context.Background(), eng, store.NewMemory(1<<20))
	srv.sseWriteTimeout = 300 * time.Millisecond

	// Hand-build a submission whose frames dwarf any socket buffering
	// loopback can absorb (64 × 256 KiB = 16 MiB), so a reader that
	// stops draining stalls the server's writes for real.
	sub := &submission{id: "sub-slow", changed: make(chan struct{})}
	srv.mu.Lock()
	srv.subs[sub.id] = sub
	srv.mu.Unlock()
	frame := append(append([]byte("data: "), bytes.Repeat([]byte("x"), 256<<10)...), "\n\n"...)
	const frames = 64
	for i := 0; i < frames; i++ {
		sub.append(frame)
	}
	sub.append(nil)

	ts := httptest.NewServer(srv)
	defer ts.Close()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled subscriber: speaks just enough HTTP to subscribe,
	// then never reads a byte off the socket.
	stalled, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fmt.Fprintf(stalled, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: %s\r\n\r\n", sub.id, u.Host)

	// A healthy subscriber of the same submission streams everything.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("healthy subscriber failed alongside the stalled one: %v", err)
	}
	if want := frames * len(frame); len(body) < want {
		t.Fatalf("healthy subscriber got %d bytes, want >= %d", len(body), want)
	}

	// The stalled one must be disconnected within the write timeout
	// (plus scheduling slack), not held forever.
	deadline := time.Now().Add(10 * time.Second)
	for srv.sseSlowDisconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never disconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
