package fleet

// Worker health: one circuit per member, always on and local to this
// runner. The ring and the shared membership register are the static
// half of placement; health is the dynamic half, so it is observed here
// and never published.
//
//	closed ──failure, liveness probe fails too──▶ open (unreachable)
//	closed ──tripAfter consecutive failures─────▶ open (still answering)
//	open ──cooldown over, /healthz answers──▶ half-open ──probe shard succeeds──▶ closed
//	open ──cooldown over, /healthz fails────▶ open (cooldown restarts)
//	half-open ──probe shard fails───────────▶ open
//
// The half-open probe is the re-admission: an open member's virtual ring
// points never leave the ring, so the moment its probe shard succeeds
// it owns exactly the keys it owned before, and its warm store serves
// them.

import (
	"sync"
	"time"
)

// Health states, reported by FleetStats and fleetctl status.
const (
	HealthClosed   = "closed"
	HealthOpen     = "open"
	HealthHalfOpen = "half-open"
)

// tripAfter is how many consecutive failures open the circuit of a
// worker that still answers its liveness probe: sick, not gone.
const tripAfter = 5

// defaultCooldown is how long an open circuit waits before its
// half-open probe when WithReadmit does not say.
const defaultCooldown = 5 * time.Second

// health is one member's circuit. Build with newHealth.
type health struct {
	mu       sync.Mutex
	cooldown time.Duration
	now      func() time.Time

	state   string
	fails   int       // consecutive failures
	since   time.Time // when the circuit last opened
	probing bool      // half-open: the single probe slot is taken
	grant   int       // numbers slot grants, so only the holder hands one back
	lost    bool      // the last liveness probe failed
	lastErr string
}

func newHealth(cooldown time.Duration) *health {
	return &health{cooldown: cooldown, now: time.Now, state: HealthClosed}
}

// allow reports whether a routing round may place work on the member,
// and returns a nonzero grant when that work is the half-open probe. An
// open circuit whose cooldown is over goes half-open: it takes the single
// probe slot and calls probe (a /healthz round trip) before any task is
// risked, so an unreachable member costs one probe and no task's retry
// budget. The slot stays taken until the probe shard succeeds or fails,
// or the round hands its grant back; elapsed time alone never frees it,
// so a probe slower than the cooldown is never joined by a second one.
func (h *health) allow(probe func() bool) (ok bool, grant int) {
	h.mu.Lock()
	switch {
	case h.state == HealthClosed:
		h.mu.Unlock()
		return true, 0
	case h.probing, h.state == HealthOpen && h.now().Sub(h.since) < h.cooldown:
		h.mu.Unlock()
		return false, 0
	case h.state == HealthHalfOpen: // a slot handed back unused: /healthz already answered
		h.probing = true
		h.grant++
		grant = h.grant
		h.mu.Unlock()
		return true, grant
	}
	h.state, h.probing = HealthHalfOpen, true
	h.grant++
	grant = h.grant
	h.mu.Unlock()
	alive := probe()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != HealthHalfOpen || h.grant != grant { // a request in flight settled it meanwhile
		return h.state == HealthClosed, 0
	}
	if !alive {
		h.open(true)
		return false, 0
	}
	h.lost = false
	return true, grant
}

// unused hands back the half-open slot of a grant that produced no
// outcome — the round placed no task on the member, or its batch was
// canceled — so the circuit cannot wedge half-open. A stale grant frees
// nothing.
func (h *health) unused(grant int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == HealthHalfOpen && h.probing && h.grant == grant {
		h.probing = false
	}
}

// success records a request the member answered, and reports whether it
// closed an open or half-open circuit — a re-admission.
func (h *health) success() (readmitted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	readmitted = h.state != HealthClosed
	h.state, h.fails, h.probing, h.lost, h.lastErr = HealthClosed, 0, false, false, ""
	return readmitted
}

// failure records a worker-loss failure; alive is the verdict of the
// liveness probe that followed it. A failed probe opens the circuit at
// once, as does a failed half-open probe shard; a member that still
// answers opens after tripAfter consecutive failures. Reports whether
// the circuit opened.
func (h *health) failure(err error, alive bool) (opened bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails++
	h.lastErr = err.Error()
	switch {
	case h.state == HealthOpen: // already routed around; keep the cooldown running
		h.lost = h.lost || !alive
		return false
	case !alive, h.state == HealthHalfOpen, h.fails >= tripAfter:
		h.open(!alive)
		return true
	}
	return false
}

// open trips the circuit now. Callers hold mu.
func (h *health) open(lost bool) {
	h.state, h.since, h.probing, h.lost = HealthOpen, h.now(), false, lost
}

// retryAfter reports how long until allow could grant again: the rest of
// the cooldown when open, the whole cooldown as a poll bound while a
// probe is out (its outcome, not a timer, frees the slot), else zero.
func (h *health) retryAfter() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.state == HealthOpen:
		return max(h.cooldown-h.now().Sub(h.since), 0)
	case h.probing:
		return h.cooldown
	}
	return 0
}

// status snapshots the circuit for FleetStats and routing decisions.
func (h *health) status() (state string, lost bool, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.lost, h.lastErr
}
