// Package api defines the versioned JSON wire types of the clusterd HTTP
// API. Both sides of the wire build against this one package — the server
// (internal/service) renders these shapes, the typed SDK (package client)
// decodes them — so the protocol cannot drift apart silently: a field
// exists for the client exactly when the server can produce it.
//
// The protocol is versioned as a whole: every server response carries
// Version in the VersionHeader header, and clients must reject responses
// advertising a different major version instead of mis-decoding them.
// (Result blobs are separately versioned by the engine codec; Version
// covers the JSON envelope.)
package api

import (
	"fmt"
	"time"

	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/store"
)

const (
	// Version is the wire-protocol version of the types in this package.
	// Bump it on any incompatible change to the JSON shapes or routes.
	//
	// v2: SubmitRequest gained max_parallel (removed again in v9).
	// Servers reject unknown fields, so a v1 server would answer a v2
	// submission that sets it with bad_request — the version bump turns
	// that mixed-fleet hazard into a clean, detectable mismatch (which
	// multi-worker runners treat as worker loss and route around).
	//
	// v3: the fleet control plane. New routes a v2 server answers with
	// not_found: GET /v1/keys (store key enumeration, the substrate of
	// planned drains and scale-up backfills), PUT /v1/results (validated
	// result upload, how a drain warms a successor's store), and
	// GET/POST /v1/ring (the coordinator's membership register). The
	// version bump makes a mixed-version fleet fail cleanly at the
	// client instead of half-supporting migrations.
	//
	// v4: observability. SubmitResponse gained trace_ids (per-job trace
	// IDs, seedable via the Clustersim-Trace-Id request header), GET
	// /v1/trace/{id} returns a job's span tree, and StatsResponse gained
	// routes/stages latency histograms. A v3 server would silently drop
	// the trace header and 404 the trace route; the bump makes the
	// mismatch detectable.
	//
	// v5: admission control. SubmitRequest gained priority (scheduling
	// lane), requests may carry a deadline in the DeadlineHeader header,
	// overloaded submissions are refused with 429 + Retry-After under
	// the new rate_limited / quota_exceeded codes, JobEvent gained a
	// machine-readable code for shed jobs (deadline_exceeded /
	// canceled), and StatsResponse gained admission counters. A v4
	// server would reject the priority field as bad_request and
	// silently ignore the deadline header; the bump makes both
	// mismatches detectable.
	//
	// v6: the ring register keeps only planned, operator-driven
	// transitions. POST /v1/ring no longer accepts mark_dead or readmit
	// (worker health is each fleet runner's local observation), the
	// transition's error field and the member's last_error are gone, and
	// no member is ever published as dead. A v5 runner would propose
	// transitions a v6 coordinator refuses mid-run; the bump makes the
	// mismatch fail at construction instead.
	//
	// v7: every steering scheme is a setup kind. SetupSpec.Kind also
	// names the policy survey's ADV, LC, SLC and MOD, and a submission
	// whose setup sets a count out of range, a negative cap, or a field
	// its kind ignores is refused with bad_request. A v6 server would
	// answer the new kinds with bad_request mid-run; the bump makes the
	// mismatch fail at construction instead.
	//
	// v8: every paper job is declarative. OptionsSpec gained machine, an
	// override of the Table 2 machine with named knobs (link_latency,
	// topology, link_bandwidth, copy_issue, iq, prefetch_degree, where
	// -1 turns prefetching off); zero or absent knobs keep Table 2, and a
	// knob out of bound is refused with bad_request. A v7 server would refuse the unknown field mid-run;
	// the bump makes the mismatch fail at construction instead.
	//
	// v9: SubmitRequest lost max_parallel. A batch shares a worker
	// through its priority lane and its tenant's quota alone, so a v9
	// server answers a v8 submission that still sets the field with
	// bad_request; the bump makes the mismatch fail at construction
	// instead.
	//
	// v10: a successful job's JobEvent carries its full result, encoded
	// by the engine codec, in result. A v9 server streams success events
	// without it, which a v10 client can only report as a protocol error
	// per job; the bump makes the mismatch fail at construction instead.
	// GET /v1/results is unchanged and remains the way to fetch a result
	// by key.
	Version = 10
	// VersionHeader is the HTTP response header carrying Version.
	VersionHeader = "Clustersim-Api-Version"
	// TraceHeader optionally carries a caller-chosen trace-ID base on
	// POST /v1/jobs; per-job IDs are derived as "<base>.<index>". The
	// server mints random IDs when the header is absent or invalid (see
	// obs.ValidTraceID).
	TraceHeader = "Clustersim-Trace-Id"
	// DeadlineHeader optionally carries a submission's deadline on POST
	// /v1/jobs as a positive integer of milliseconds from receipt. The
	// server propagates it as a context deadline through every engine
	// run of the batch: jobs whose deadline expires before they reach a
	// worker slot are shed (never simulated) and stream a JobEvent with
	// code deadline_exceeded. Introduced with protocol v5.
	DeadlineHeader = "Clustersim-Deadline-Ms"
	// TenantHeader optionally names the tenant identity admission
	// control accounts the request to, for deployments without bearer
	// auth (with auth enabled the token itself is the identity and this
	// header is ignored). Absent both, all requests share one "anon"
	// tenant. Introduced with protocol v5.
	TenantHeader = "Clustersim-Tenant"
)

// Stable machine-readable error codes carried by Error.Code. Clients
// branch on the code; Message is for humans and may change freely.
const (
	CodeBadRequest       = "bad_request"        // malformed body, unknown spec fields
	CodeNotFound         = "not_found"          // unknown submission, route or result key
	CodeMethodNotAllowed = "method_not_allowed" // known route, wrong HTTP method
	CodeUnauthorized     = "unauthorized"       // missing or wrong bearer token
	CodeInternal         = "internal"           // server-side failure
	CodeEpochConflict    = "epoch_conflict"     // ring transition based on a stale epoch
	CodeUnsupported      = "unsupported"        // server cannot serve this (e.g. tracing or coordinator disabled)
	CodeRateLimited      = "rate_limited"       // tenant over its submission rate; retry after the hinted pause
	CodeQuotaExceeded    = "quota_exceeded"     // tenant at its in-flight job quota; retry as work completes
	CodeDeadlineExceeded = "deadline_exceeded"  // the request's deadline expired before the work could run
)

// Error is the JSON body of every non-2xx response. It doubles as a Go
// error so the client SDK can surface server failures verbatim.
type Error struct {
	// Code is one of the Code* constants — stable across releases.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"error"`
	// Status is the HTTP status the error traveled with (not serialized;
	// filled in by the client from the response).
	Status int `json:"-"`
	// RetryAfter is the server's Retry-After hint on 429 responses (not
	// serialized — it travels as the standard HTTP header; filled in by
	// the client). Zero when the server sent none.
	RetryAfter time.Duration `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("clusterd: %s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("clusterd: %s (%s)", e.Message, e.Code)
}

// SubmitRequest is the POST /v1/jobs body: a batch of declarative job
// specs. Servers also accept a single bare engine.JobSpec object for
// curl-friendliness; the SDK always sends the batch form.
type SubmitRequest struct {
	Jobs []engine.JobSpec `json:"jobs"`
	// Priority selects the batch's scheduling lane: "interactive" (the
	// default; latency-sensitive, weighted 4) or "bulk" (sweeps and
	// background fills, weighted 1). Under contention the engine grants
	// worker slots weighted-fair across lanes instead of FIFO, so bulk
	// backlogs cannot queue-jump interactive work. Unknown values are
	// refused with bad_request. Version-gated: introduced with
	// protocol v5.
	Priority string `json:"priority,omitempty"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Keys holds each job's result content key, index-aligned with the
	// submitted batch ("" for uncacheable jobs).
	Keys []string `json:"keys"`
	// Total is the number of jobs accepted.
	Total int `json:"total"`
	// TraceIDs holds each job's trace ID, index-aligned with the batch.
	// Fetch a completed job's span tree via GET /v1/trace/{id}.
	// Version-gated: introduced with protocol v4.
	TraceIDs []string `json:"trace_ids,omitempty"`
}

// JobEvent is one completed job, as streamed over SSE and as listed in a
// StatusResponse.
type JobEvent struct {
	// Index is the job's position in the submitted batch.
	Index int `json:"index"`
	// Simpoint and Setup identify the run.
	Simpoint string `json:"simpoint"`
	Setup    string `json:"setup"`
	// Key is the result's content address in the store ("" when the job
	// is uncacheable).
	Key string `json:"key,omitempty"`
	// Error is non-empty for failed or canceled runs.
	Error string `json:"error,omitempty"`
	// Code classifies Error machine-readably when the failure has a
	// stable category: deadline_exceeded for jobs shed past their
	// deadline, canceled for client-canceled runs. Empty for
	// deterministic simulation failures (branch on Error's presence,
	// not Code's). Introduced with protocol v5.
	Code string `json:"code,omitempty"`
	// Headline metrics for dashboards that do not decode Result.
	IPC    float64 `json:"ipc,omitempty"`
	Cycles int64   `json:"cycles,omitempty"`
	Uops   int64   `json:"uops,omitempty"`
	Copies int64   `json:"copies,omitempty"`
	// Result is the job's full result as engine.EncodeResult writes it
	// (base64 in JSON) — the same bytes GET /v1/results?key=…&raw=1
	// serves — so a subscriber needs no second request per job. Every
	// successful job's event carries it; failed and canceled jobs' events
	// never do. Introduced with protocol v10.
	Result []byte `json:"result,omitempty"`
}

// StatusResponse reports a submission's progress.
type StatusResponse struct {
	ID        string     `json:"id"`
	Total     int        `json:"total"`
	Completed int        `json:"completed"`
	Done      bool       `json:"done"`
	Results   []JobEvent `json:"results"`
}

// ResultResponse is the JSON rendering of a stored result; add &raw=1 to
// the fetch for the full codec blob instead.
type ResultResponse struct {
	Key        string  `json:"key"`
	Simpoint   string  `json:"simpoint"`
	Bench      string  `json:"bench"`
	Setup      string  `json:"setup"`
	IPC        float64 `json:"ipc"`
	Cycles     int64   `json:"cycles"`
	Uops       int64   `json:"uops"`
	Copies     int64   `json:"copies"`
	AllocStall int64   `json:"alloc_stall_cycles"`
	Imbalance  float64 `json:"workload_imbalance"`
}

// TraceSpan is one recorded stage of a job's flight: a named interval
// offset from the flight's start, in microseconds.
type TraceSpan struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// TraceResponse is GET /v1/trace/{id}: one completed job's span tree.
// Only finished jobs are visible; an in-flight or evicted trace answers
// not_found. UnaccountedUs is the gap-accounted remainder — total time
// not covered by any span — so a trace is honest about time spent
// between recorded stages. Add ?format=chrome for a Chrome trace-event
// document loadable in Perfetto instead of this shape. Introduced with
// protocol v4.
type TraceResponse struct {
	ID    string `json:"id"`
	Label string `json:"label"`
	// Start is the flight's wall-clock start, RFC 3339 with sub-second
	// precision.
	Start         string      `json:"start"`
	TotalUs       int64       `json:"total_us"`
	UnaccountedUs int64       `json:"unaccounted_us"`
	Spans         []TraceSpan `json:"spans"`
}

// LatencyHistogram is the wire form of one fixed-bucket latency series:
// a route (HTTP request durations, status codes aggregated) or an
// engine stage (span durations). Counts is cumulative with the final
// entry counting everything (+Inf bucket), Prometheus-style.
// Introduced with protocol v4.
type LatencyHistogram struct {
	Route  string    `json:"route,omitempty"`
	Stage  string    `json:"stage,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum_seconds"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot converts the wire form back to an obs snapshot for quantile
// math and merging.
func (h LatencyHistogram) Snapshot() obs.Snapshot {
	return obs.Snapshot{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count, Sum: h.Sum}
}

// Quantile estimates the q-th latency quantile in seconds (see
// obs.Snapshot.Quantile).
func (h LatencyHistogram) Quantile(q float64) float64 {
	if len(h.Counts) == 0 {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// MergeLatency folds b into a (same series key, same bucket layout) —
// how a fleet combines per-worker histograms into one.
func MergeLatency(a, b LatencyHistogram) LatencyHistogram {
	m := a.Snapshot().Merge(b.Snapshot())
	out := a
	if len(a.Counts) == 0 {
		out = b
	}
	out.Count, out.Sum, out.Bounds, out.Counts = m.Count, m.Sum, m.Bounds, m.Counts
	return out
}

// KeysResponse is one page of GET /v1/keys: the logical keys the server's
// result store currently holds, in a stable store-defined order. Next is
// the cursor for the following page ("" when the listing is exhausted).
// Introduced with protocol v3; it is what lets a drain or backfill
// enumerate a worker's key range without knowing what was ever submitted.
type KeysResponse struct {
	Keys []string `json:"keys"`
	Next string   `json:"next,omitempty"`
}

// Member states carried by MemberState.State. The assignable states —
// the ones a ring placement may route new work to — are alive and
// draining (a draining worker keeps serving its range until its keys
// have migrated and it is removed). Whether a worker currently answers
// is not a membership state: each fleet runner observes that locally.
const (
	MemberAlive    = "alive"
	MemberDraining = "draining"
	MemberRemoved  = "removed"
)

// MemberState is one worker's entry in the published ring membership.
type MemberState struct {
	// URL is the worker's canonical base URL — its identity on the ring.
	URL string `json:"url"`
	// State is one of the Member* constants.
	State string `json:"state"`
	// Epoch is the membership epoch at which the member last changed
	// state (admission counts).
	Epoch int64 `json:"epoch"`
}

// RingView is the coordinator's entire state: a monotonically increasing
// epoch and the member list, sorted by URL. Every fleet runner syncing
// against the same coordinator sees the same view at the same epoch and
// therefore computes the same placement — the ring itself is never
// transmitted, only the membership it is a pure function of.
type RingView struct {
	Epoch   int64         `json:"epoch"`
	Members []MemberState `json:"members"`
}

// Ring transition actions carried by RingTransition.Action.
const (
	RingAdd    = "add"    // admit a new (or removed) worker as alive
	RingDrain  = "drain"  // begin planned removal: alive -> draining
	RingRemove = "remove" // finish a drain: draining -> removed
)

// RingTransition is the POST /v1/ring body: one membership state change,
// compare-and-swapped against the coordinator's current epoch. A
// transition whose BaseEpoch is stale is refused with CodeEpochConflict
// and applied by nobody — the proposer re-syncs and retries, so N
// concurrent fleet runners serialize their membership changes through
// the coordinator's epoch without the coordinator holding anything
// beyond the tiny view itself.
type RingTransition struct {
	// BaseEpoch is the view epoch this transition was computed against.
	BaseEpoch int64 `json:"base_epoch"`
	// Action is one of the Ring* constants.
	Action string `json:"action"`
	// URL names the member the transition applies to.
	URL string `json:"url"`
}

// ServingStats counts the request-path work the server shared or avoided:
// encode-once SSE streaming and If-None-Match result fetches.
type ServingStats struct {
	// SSEMarshals counts job-event JSON encodes — exactly one per
	// completed job, however many subscribers replay it.
	SSEMarshals int64 `json:"sse_marshals"`
	// SSEFrames and SSEBytes count the shared result frames (and their
	// bytes) actually written to SSE subscribers.
	SSEFrames int64 `json:"sse_frames"`
	SSEBytes  int64 `json:"sse_bytes"`
	// SSESlowDisconnects counts subscribers dropped because they could
	// not drain a frame within the server's write timeout — stalled
	// readers shed so fan-out stays bounded. Introduced with protocol
	// v5.
	SSESlowDisconnects int64 `json:"sse_slow_disconnects,omitempty"`
	// NotModified counts result fetches answered 304 from the ETag
	// protocol — no store read, no body.
	NotModified int64 `json:"result_not_modified"`
	// ResultUploads counts validated result blobs accepted over PUT
	// /v1/results — drain migrations and scale-up backfills landing.
	ResultUploads int64 `json:"result_uploads,omitempty"`
	// KeyPages counts GET /v1/keys pages served.
	KeyPages int64 `json:"key_pages,omitempty"`
	// RingEpoch is the coordinator's current membership epoch (0 when
	// this server is not a coordinator or holds no view yet).
	RingEpoch int64 `json:"ring_epoch,omitempty"`
	// RingTransitions counts membership transitions this coordinator
	// accepted; RingConflicts counts proposals refused for a stale epoch.
	RingTransitions int64 `json:"ring_transitions,omitempty"`
	RingConflicts   int64 `json:"ring_conflicts,omitempty"`
}

// AdmissionStats reports the server's admission-control counters.
// Version-gated: introduced with protocol v5; absent when the server
// runs without limits.
type AdmissionStats struct {
	// Admitted counts jobs (not batches) admitted.
	Admitted int64 `json:"admitted"`
	// RejectedRate/RejectedQuota count batches refused 429 by reason.
	RejectedRate  int64 `json:"rejected_rate"`
	RejectedQuota int64 `json:"rejected_quota"`
	// InFlight is the current total of admitted-but-unfinished jobs.
	InFlight int64 `json:"in_flight"`
	// Tenants is the number of identities currently tracked.
	Tenants int `json:"tenants"`
}

// StatsResponse reports the engine's cache counters and the store's
// occupancy, with per-tier detail when the store is tiered.
type StatsResponse struct {
	Engine  engine.CacheStats `json:"engine"`
	Store   store.Stats       `json:"store"`
	Memory  *store.Stats      `json:"memory,omitempty"`
	Disk    *store.Stats      `json:"disk,omitempty"`
	Serving ServingStats      `json:"serving"`
	// Routes holds per-route HTTP latency histograms (status codes
	// aggregated) and Stages the engine's per-stage span histograms.
	// Version-gated: introduced with protocol v4.
	Routes []LatencyHistogram `json:"routes,omitempty"`
	Stages []LatencyHistogram `json:"stages,omitempty"`
	// Admission holds the admission-control counters when limits are
	// configured. Version-gated: introduced with protocol v5.
	Admission *AdmissionStats `json:"admission,omitempty"`
}
