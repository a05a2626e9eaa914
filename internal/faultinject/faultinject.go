// Package faultinject is the chaos harness behind the overload and
// resilience tests: seeded, deterministic injection of latency, transport
// errors, and stalls onto the store and HTTP hops of a clusterd stack.
//
// One Injector carries one seeded PRNG, so a fixed seed yields a
// reproducible fault schedule (per draw order); the same flag string
// replays the same chaos. Three wrappers share the Injector:
//
//   - Middleware wraps a server's handler: injected hops sleep the drawn
//     latency, and an injected error aborts the connection before the
//     handler runs (the client sees a transport failure, never a valid
//     response — so an aborted submit was never accepted and can be
//     retried without duplicating work). Exempt path prefixes pass
//     through untouched; /healthz is always exempt so liveness probes
//     keep answering and the fleet distinguishes "sick" from "gone".
//   - RoundTripper wraps a client transport with the same draw.
//   - Store wraps a blob store: injected Gets miss (forcing the slow
//     path), injected Puts drop (the Store contract is best-effort).
//
// The package has no opinions about rates — it does exactly what its
// Config says, and counts what it did.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/store"
)

// Config is one fault schedule. Zero fields inject nothing of that kind.
type Config struct {
	// Seed seeds the PRNG; the same seed draws the same schedule.
	Seed int64
	// Latency is added to every injected hop; Jitter adds a uniform
	// extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ErrorRate is the probability in [0, 1] that a hop fails outright:
	// connection abort (Middleware), transport error (RoundTripper),
	// miss/drop (Store).
	ErrorRate float64
	// StallRate is the probability in [0, 1] that a hop stalls for
	// Stall (default 1s when a rate is set) on top of Latency — the
	// "slow worker" shape, distinct from outright failure.
	StallRate float64
	Stall     time.Duration
}

// Parse builds a Config from a flag string of comma-separated key=value
// pairs: "seed=1,latency=5ms,jitter=2ms,error=0.05,stall=0.01,stalldur=2s".
// Unknown keys are errors; an empty string is the zero Config.
func Parse(s string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: %q is not key=value", pair)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "latency":
			cfg.Latency, err = time.ParseDuration(v)
		case "jitter":
			cfg.Jitter, err = time.ParseDuration(v)
		case "error":
			cfg.ErrorRate, err = strconv.ParseFloat(v, 64)
		case "stall":
			cfg.StallRate, err = strconv.ParseFloat(v, 64)
		case "stalldur":
			cfg.Stall, err = time.ParseDuration(v)
		default:
			return cfg, fmt.Errorf("faultinject: unknown key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("faultinject: bad %s: %v", k, err)
		}
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate > 1 || cfg.StallRate < 0 || cfg.StallRate > 1 {
		return cfg, fmt.Errorf("faultinject: rates must be within [0, 1]")
	}
	if cfg.StallRate > 0 && cfg.Stall == 0 {
		cfg.Stall = time.Second
	}
	return cfg, nil
}

// Stats counts what an Injector has done.
type Stats struct {
	Hops, Errors, Stalls int64
}

// Injector draws faults from one seeded schedule. Safe for concurrent
// use; concurrent draws serialize on the PRNG, so exact schedules are
// reproducible for serial callers and statistically reproducible under
// concurrency.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	hops, errors, stalls atomic.Int64
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Enabled reports whether the schedule injects anything at all.
func (in *Injector) Enabled() bool {
	return in != nil && (in.cfg.Latency > 0 || in.cfg.Jitter > 0 || in.cfg.ErrorRate > 0 || in.cfg.StallRate > 0)
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{Hops: in.hops.Load(), Errors: in.errors.Load(), Stalls: in.stalls.Load()}
}

// draw rolls one hop's fate: how long to sleep and whether to fail.
func (in *Injector) draw() (delay time.Duration, fail bool) {
	in.mu.Lock()
	delay = in.cfg.Latency
	if in.cfg.Jitter > 0 {
		delay += time.Duration(in.rng.Float64() * float64(in.cfg.Jitter))
	}
	stalled := in.cfg.StallRate > 0 && in.rng.Float64() < in.cfg.StallRate
	if stalled {
		delay += in.cfg.Stall
	}
	fail = in.cfg.ErrorRate > 0 && in.rng.Float64() < in.cfg.ErrorRate
	in.mu.Unlock()

	in.hops.Add(1)
	if stalled {
		in.stalls.Add(1)
	}
	if fail {
		in.errors.Add(1)
	}
	return delay, fail
}

// Middleware wraps next with the fault schedule. Requests whose path
// starts with any exempt prefix — and /healthz always — pass through
// untouched. An injected error aborts the connection before next runs,
// so the client observes a transport failure and the request was never
// acted on.
func (in *Injector) Middleware(next http.Handler, exempt ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		for _, p := range exempt {
			if strings.HasPrefix(r.URL.Path, p) {
				next.ServeHTTP(w, r)
				return
			}
		}
		delay, fail := in.draw()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		if fail {
			panic(http.ErrAbortHandler) // net/http closes the connection
		}
		next.ServeHTTP(w, r)
	})
}

// RoundTripper wraps a client-side transport with the fault schedule:
// injected hops sleep, injected errors fail the request without sending
// it.
func (in *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		delay, fail := in.draw()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return nil, r.Context().Err()
			}
		}
		if fail {
			return nil, fmt.Errorf("faultinject: injected transport failure for %s %s", r.Method, r.URL.Path)
		}
		return next.RoundTrip(r)
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// Store wraps s with the fault schedule: injected Gets report a miss
// (forcing the caller down its slow path), injected Puts drop the blob —
// both legal under the Store contract, which treats reads of corrupt
// data as absence and writes as best-effort.
func (in *Injector) Store(s store.Store) store.Store {
	return &faultStore{inner: s, in: in}
}

type faultStore struct {
	inner store.Store
	in    *Injector
}

func (fs *faultStore) Get(key string) ([]byte, bool) {
	delay, fail := fs.in.draw()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return nil, false
	}
	return fs.inner.Get(key)
}

func (fs *faultStore) Put(key string, blob []byte) {
	delay, fail := fs.in.draw()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return
	}
	fs.inner.Put(key, blob)
}

func (fs *faultStore) Keys(ctx context.Context, limit int, cursor string) ([]string, string, error) {
	return fs.inner.Keys(ctx, limit, cursor)
}

func (fs *faultStore) Stats() store.Stats { return fs.inner.Stats() }
