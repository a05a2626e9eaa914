package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives a circuit through time deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testHealth(cool time.Duration) (*health, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := newHealth(cool)
	h.now = clk.now
	return h, clk
}

var errBlip = errors.New("connection reset")

// answers and gone are liveness probes that succeed and fail.
func answers() bool { return true }
func gone() bool    { return false }

// allowed is allow without the grant.
func allowed(h *health, probe func() bool) bool {
	ok, _ := h.allow(probe)
	return ok
}

func state(h *health) string {
	s, _, _ := h.status()
	return s
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	h, _ := testHealth(time.Minute)
	for i := 1; i < tripAfter; i++ {
		if h.failure(errBlip, true) || !allowed(h, answers) {
			t.Fatalf("opened after %d failures on a worker that answers, trip is %d", i, tripAfter)
		}
	}
	if !h.failure(errBlip, true) || allowed(h, answers) {
		t.Fatal("still closed after reaching the trip threshold")
	}
	if got, lost, lastErr := h.status(); got != HealthOpen || lost || lastErr != errBlip.Error() {
		t.Fatalf("status = %q lost=%v lastErr=%q, want open, answering, with the failure", got, lost, lastErr)
	}

	// A failure whose liveness probe fails too opens at once.
	h2, _ := testHealth(time.Minute)
	if !h2.failure(errBlip, false) || allowed(h2, answers) {
		t.Fatal("an unreachable worker's circuit did not open on its first failure")
	}
	if _, lost, _ := h2.status(); !lost {
		t.Error("unreachable worker not recorded as lost")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	h, _ := testHealth(time.Minute)
	// Interleaved successes keep the consecutive count from accumulating.
	for i := 0; i < 10; i++ {
		for j := 1; j < tripAfter; j++ {
			h.failure(errBlip, true)
		}
		if h.success() {
			t.Fatal("a success on a closed circuit counted as a re-admission")
		}
	}
	if !allowed(h, answers) || state(h) != HealthClosed {
		t.Fatalf("non-consecutive failures tripped the circuit (state %q)", state(h))
	}
	if _, _, lastErr := h.status(); lastErr != "" {
		t.Errorf("success left lastErr = %q", lastErr)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	h, clk := testHealth(time.Minute)
	h.failure(errBlip, false)
	probes := 0
	probe := func() bool { probes++; return true }
	if allowed(h, probe) || probes != 0 {
		t.Fatal("open circuit allowed traffic (or probed) before the cooldown")
	}
	clk.advance(time.Minute)
	if !allowed(h, probe) || probes != 1 {
		t.Fatalf("cooldown elapsed but probe not granted (probes %d)", probes)
	}
	if got, lost, _ := h.status(); got != HealthHalfOpen || lost {
		t.Fatalf("state = %q lost=%v, want half-open and answering", got, lost)
	}
	if allowed(h, probe) {
		t.Fatal("second probe granted while the first is outstanding")
	}

	// A failed probe shard re-opens and re-arms the cooldown.
	if !h.failure(errBlip, true) || state(h) != HealthOpen {
		t.Fatalf("state after failed probe = %q, want open", state(h))
	}
	if allowed(h, probe) {
		t.Fatal("re-opened circuit allowed traffic immediately")
	}

	// A successful probe shard closes it: that is the re-admission.
	clk.advance(time.Minute)
	if !allowed(h, probe) {
		t.Fatal("second probe not granted after re-cooldown")
	}
	if !h.success() || state(h) != HealthClosed {
		t.Fatalf("successful probe did not re-admit (state %q)", state(h))
	}
	if !allowed(h, probe) || !allowed(h, probe) {
		t.Fatal("closed circuit limited traffic")
	}
}

// An unreachable member's half-open /healthz probe failing costs no task
// anything: allow refuses before any work is placed, and the cooldown
// starts over. TestFleetFailedHealthProbeSpendsNoRetries checks the same
// through the router.
func TestBreakerFailedHealthProbeSpendsNoRetries(t *testing.T) {
	h, clk := testHealth(time.Second)
	h.failure(errBlip, false)
	clk.advance(time.Second)
	if allowed(h, gone) {
		t.Fatal("a worker that failed its /healthz probe was granted a probe shard")
	}
	if got, lost, _ := h.status(); got != HealthOpen || !lost {
		t.Fatalf("state = %q lost=%v, want open and lost", got, lost)
	}
	if d := h.retryAfter(); d != time.Second {
		t.Fatalf("retryAfter = %v, want a fresh cooldown", d)
	}
}

func TestBreakerUnusedProbeRearms(t *testing.T) {
	// A granted probe that never produced an outcome (no task routed to
	// the worker that round, or its batch canceled) must not wedge the
	// circuit half-open: the router hands the grant back, and the next
	// grant needs no second /healthz round trip. A stale grant frees
	// nothing.
	h, clk := testHealth(time.Second)
	h.failure(errBlip, false)
	clk.advance(time.Second)
	ok, first := h.allow(answers)
	if !ok || first == 0 {
		t.Fatalf("probe not granted (ok %v, grant %d)", ok, first)
	}
	if allowed(h, answers) {
		t.Fatal("probe slot granted twice")
	}
	h.unused(0) // a round that held no grant
	if allowed(h, answers) {
		t.Fatal("a round without the grant freed the probe slot")
	}
	h.unused(first)
	ok, second := h.allow(func() bool { t.Fatal("re-armed slot probed /healthz again"); return false })
	if !ok {
		t.Fatal("returned probe slot never re-armed")
	}
	h.unused(first)
	if allowed(h, answers) {
		t.Fatal("a stale grant freed the current probe slot")
	}
	h.unused(second)
	if !allowed(h, answers) {
		t.Fatal("current grant did not free its slot")
	}
}

func TestBreakerSlowProbeStaysExclusive(t *testing.T) {
	// An in-flight probe slower than the cooldown must not be joined by a
	// second probe: elapsed time alone never frees the slot, only the
	// probe's own outcome (or an explicit unused).
	h, clk := testHealth(time.Second)
	h.failure(errBlip, false)
	clk.advance(time.Second)
	if !allowed(h, answers) {
		t.Fatal("probe not granted")
	}
	clk.advance(10 * time.Second)
	if allowed(h, answers) {
		t.Fatal("second probe granted while the first is still in flight")
	}
	h.success()
	if !allowed(h, answers) || state(h) != HealthClosed {
		t.Fatalf("slow probe's success did not close the circuit (state %q)", state(h))
	}

	// The /healthz half of the probe is exclusive too: while it runs, the
	// slot is already taken.
	h.failure(errBlip, false)
	clk.advance(time.Second)
	allowed(h, func() bool {
		if allowed(h, answers) {
			t.Error("second probe granted while /healthz was in flight")
		}
		return true
	})

	// Routing rounds of concurrent batches race for the slot: exactly one
	// wins it.
	h.failure(errBlip, true)
	clk.advance(time.Second)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if allowed(h, answers) {
				granted.Add(1)
			}
			h.retryAfter()
			h.status()
		}()
	}
	wg.Wait()
	if n := granted.Load(); n != 1 {
		t.Fatalf("%d concurrent rounds won the half-open probe, want 1", n)
	}
}

func TestBreakerRetryAfter(t *testing.T) {
	h, clk := testHealth(time.Second)
	if d := h.retryAfter(); d != 0 {
		t.Fatalf("closed retryAfter = %v, want 0", d)
	}
	h.failure(errBlip, false)
	if d := h.retryAfter(); d != time.Second {
		t.Fatalf("freshly opened retryAfter = %v, want 1s", d)
	}
	clk.advance(600 * time.Millisecond)
	if d := h.retryAfter(); d != 400*time.Millisecond {
		t.Fatalf("mid-cooldown retryAfter = %v, want 400ms", d)
	}
	clk.advance(400 * time.Millisecond)
	if d := h.retryAfter(); d != 0 {
		t.Fatalf("cooled-down retryAfter = %v, want 0", d)
	}
	if !allowed(h, answers) {
		t.Fatal("probe not granted after cooldown")
	}
	// While the probe is in flight there is no timer to wait out, only a
	// poll bound.
	if d := h.retryAfter(); d != time.Second {
		t.Fatalf("in-flight-probe retryAfter = %v, want the cooldown", d)
	}

	// The router waits for the shortest remaining cooldown of any member.
	a, clkA := testHealth(time.Second)
	b, _ := testHealth(time.Second)
	a.failure(errBlip, false)
	clkA.advance(700 * time.Millisecond)
	b.failure(errBlip, false)
	f := &Runner{cooldown: time.Second}
	pl := placement{members: []*member{{h: a}, {h: b}}}
	if d := f.retryDelay(pl); d != 300*time.Millisecond {
		t.Fatalf("retryDelay = %v, want the shortest remaining cooldown (300ms)", d)
	}
}

func TestBreakerResetClosesImmediately(t *testing.T) {
	// A success closes an open circuit mid-cooldown — what AddWorker does
	// for a member whose health check just passed.
	h, _ := testHealth(time.Hour)
	h.failure(errBlip, false)
	if allowed(h, answers) {
		t.Fatal("not open")
	}
	if !h.success() || !allowed(h, answers) || state(h) != HealthClosed {
		t.Fatalf("success did not close the circuit (state %q)", state(h))
	}
}
