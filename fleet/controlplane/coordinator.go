package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"clustersim/internal/api"
)

// CoordClient is the wire side of the coordinator protocol, satisfied by
// *client.Client. controlplane deliberately does not import the client
// package — it names only the two calls it needs, which keeps the
// dependency arrow pointing one way (client -> api <- controlplane) and
// lets internal/service reuse Membership for the server side.
type CoordClient interface {
	// Ring fetches the coordinator's current view.
	Ring(ctx context.Context) (*api.RingView, error)
	// ProposeRing submits one CAS transition; an *api.Error with code
	// CodeEpochConflict means the base epoch was stale (the returned view,
	// when non-nil, is the coordinator's current one).
	ProposeRing(ctx context.Context, t api.RingTransition) (*api.RingView, error)
}

// Coordinator binds a local Membership to a remote coordinator: Sync
// pulls the published view into the local table, Propose pushes one
// transition through the CAS register with bounded retries. A nil
// *Coordinator (or one with a nil client) degrades to purely local
// operation — the fleet works coordinator-free exactly as before.
//
// The coordinator's epoch and the local table's epoch are tracked
// separately: a runner whose table raced ahead (a table seeded from the
// runner's worker list before it reached the coordinator) must still CAS
// against what the *coordinator* last published, not against its own
// count.
type Coordinator struct {
	c CoordClient
	m *Membership

	mu       sync.Mutex
	lastSeen int64 // coordinator epoch from the most recent response
}

// NewCoordinator wires a membership table to a coordinator client.
func NewCoordinator(c CoordClient, m *Membership) *Coordinator {
	return &Coordinator{c: c, m: m}
}

// Enabled reports whether a remote coordinator is configured.
func (co *Coordinator) Enabled() bool { return co != nil && co.c != nil }

// proposeRetries bounds how many CAS rounds a single Propose may lose
// before giving up. Each lost round means another runner advanced the
// epoch, so the bound is only reachable under a pathological proposal
// storm — and even then the loser's transition is usually satisfied by
// whoever beat it.
const proposeRetries = 8

// observe records a view returned by the coordinator: it becomes the CAS
// base for the next proposal, and the local table adopts it when newer.
func (co *Coordinator) observe(v *api.RingView) {
	if v == nil {
		return
	}
	co.mu.Lock()
	if v.Epoch > co.lastSeen {
		co.lastSeen = v.Epoch
	}
	co.mu.Unlock()
	co.m.Apply(*v)
}

func (co *Coordinator) base() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.lastSeen
}

// Sync fetches the coordinator's view and applies it to the local table
// (newest epoch wins). It returns the fetched view — the coordinator's
// word, which callers inspect when the local table may legitimately
// disagree with it — or nil when no coordinator is configured.
func (co *Coordinator) Sync(ctx context.Context) (*api.RingView, error) {
	if !co.Enabled() {
		return nil, nil
	}
	v, err := co.c.Ring(ctx)
	if err != nil {
		return nil, err
	}
	co.observe(v)
	return v, nil
}

// Propose drives one membership transition to agreement. With a
// coordinator it is a CAS loop: propose against the coordinator's
// last-seen epoch; on epoch_conflict adopt the fresher view, check
// whether the goal already holds there (another runner made the same
// change first), and otherwise retry. Without a coordinator it
// applies the transition locally. Either way the local table reflects
// the outcome on return.
func (co *Coordinator) Propose(ctx context.Context, action, url string) error {
	if !co.Enabled() {
		_, err := co.m.Transition(action, url)
		return err
	}
	for attempt := 0; attempt < proposeRetries; attempt++ {
		v, err := co.c.ProposeRing(ctx, api.RingTransition{
			BaseEpoch: co.base(),
			Action:    action,
			URL:       url,
		})
		if err == nil {
			co.observe(v)
			return nil
		}
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeEpochConflict {
			return err
		}
		// Lost the CAS race: adopt the coordinator's view and re-check
		// against *it* — the local table may legitimately be ahead.
		if v == nil {
			if v, err = co.c.Ring(ctx); err != nil {
				return err
			}
		}
		co.observe(v)
		if actionSatisfied(action, StateIn(v, url)) {
			return nil
		}
	}
	return fmt.Errorf("controlplane: %s %s lost %d consecutive epoch races", action, url, proposeRetries)
}

// StateIn returns url's state in a view ("" when absent).
func StateIn(v *api.RingView, url string) string {
	for i := range v.Members {
		if v.Members[i].URL == url {
			return v.Members[i].State
		}
	}
	return ""
}
