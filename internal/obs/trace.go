package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// traceIDKey is the context key carrying a job's trace ID from the HTTP
// edge (or a client) down into the engine.
type traceIDKey struct{}

// WithTraceID returns a context carrying the given trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID from ctx ("" when absent).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// JobTraceID names job i of a batch whose trace-ID base is base:
// "<base>.<i>", so a batch's flights are greppable as a family.
func JobTraceID(base string, i int) string {
	return base + "." + strconv.Itoa(i)
}

// NewTraceID mints a random 16-hex-char trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a constant rather than crash an observability path.
		return "trace-rand-failed"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether a caller-supplied trace ID (typically
// from the Clustersim-Trace-Id header) is safe to adopt: non-empty, at
// most 64 characters, and limited to [a-zA-Z0-9._-]. Invalid IDs are
// replaced by a freshly minted one rather than rejected — tracing must
// never fail a request.
func ValidTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Span is one recorded stage of a flight: a named interval relative to
// the flight's start.
type Span struct {
	Name  string
	Start time.Duration // offset from flight start
	Dur   time.Duration
}

// Flight is the trace record of one job's pass through the system. All
// methods are nil-safe so instrumented code runs unconditionally: an
// engine without a tracer carries a nil *Flight everywhere and every
// recording call is a no-op.
type Flight struct {
	ID    string
	Label string

	tracer *Tracer
	start  time.Time

	mu    sync.Mutex
	spans []Span
	done  bool
}

// Begin opens a span: it returns the wall-clock start the matching
// Span call closes against. On a nil flight it returns the zero time,
// which Span treats as "don't record".
func (f *Flight) Begin() time.Time {
	if f == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a completed stage opened by Begin. No-op on a nil
// flight, a zero start, or a flight already ended.
func (f *Flight) Span(name string, start time.Time) {
	if f == nil || start.IsZero() {
		return
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.spans = append(f.spans, Span{Name: name, Start: start.Sub(f.start), Dur: now.Sub(start)})
}

// End closes the flight: it publishes the record into the tracer's ring
// (making it queryable by ID) and folds each span into the tracer's
// per-stage histograms. Idempotent; no-op on a nil flight.
func (f *Flight) End() {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	total := time.Since(f.start)
	spans := f.spans
	f.mu.Unlock()
	f.tracer.publish(f, total, spans)
}

// FlightRecord is the immutable, completed form of a flight as stored
// in the tracer ring and returned by Lookup.
type FlightRecord struct {
	ID    string
	Label string
	Start time.Time
	Total time.Duration
	Spans []Span
}

// Unaccounted is the part of the flight's total duration not covered by
// any recorded span — the "gap accounting" that makes a trace honest
// about time spent between stages. Overlapping spans (a cache-hit span
// covering a joined wait) are coalesced before subtracting.
func (r FlightRecord) Unaccounted() time.Duration {
	if len(r.Spans) == 0 {
		return r.Total
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(r.Spans))
	for _, s := range r.Spans {
		ivs = append(ivs, iv{s.Start, s.Start + s.Dur})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	if covered > r.Total {
		return 0
	}
	return r.Total - covered
}

// Tracer holds a bounded ring of completed flight records plus
// per-stage duration histograms. A nil *Tracer is valid everywhere and
// records nothing.
type Tracer struct {
	mu       sync.Mutex
	capacity int
	ring     []string // completed flight IDs, oldest first
	next     int
	byID     map[string]FlightRecord

	stages *Vec // per-stage histograms, label = stage name
}

// NewTracer builds a tracer retaining up to capacity completed flights
// (oldest evicted first). capacity <= 0 defaults to 1024.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{
		capacity: capacity,
		ring:     make([]string, 0, capacity),
		byID:     map[string]FlightRecord{},
		stages:   NewVec(nil),
	}
}

// StartFlight opens a flight for one job. The trace ID is taken from
// ctx when present and valid, otherwise minted. Returns nil (a valid,
// inert flight) on a nil tracer.
func (t *Tracer) StartFlight(ctx context.Context, label string) *Flight {
	if t == nil {
		return nil
	}
	id := TraceIDFrom(ctx)
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	return &Flight{ID: id, Label: label, tracer: t, start: time.Now()}
}

// publish stores a completed flight and feeds its spans into the stage
// histograms.
func (t *Tracer) publish(f *Flight, total time.Duration, spans []Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		t.stages.With(s.Name).Observe(s.Dur)
	}
	rec := FlightRecord{ID: f.ID, Label: f.Label, Start: f.start, Total: total, Spans: spans}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[rec.ID]; ok {
		// Re-submitted trace ID (client retry): keep the newest record;
		// the existing ring slot keeps holding the ID.
		t.byID[rec.ID] = rec
		return
	}
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, rec.ID)
	} else {
		delete(t.byID, t.ring[t.next])
		t.ring[t.next] = rec.ID
		t.next = (t.next + 1) % t.capacity
	}
	t.byID[rec.ID] = rec
}

// Lookup returns the completed flight with the given ID, if it is still
// in the ring. Flights still in progress are not visible.
func (t *Tracer) Lookup(id string) (FlightRecord, bool) {
	if t == nil {
		return FlightRecord{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byID[id]
	return r, ok
}

// Records returns every retained flight, oldest first.
func (t *Tracer) Records() []FlightRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FlightRecord, 0, len(t.byID))
	// Ring order, skipping stale slots left by ID-reuse.
	seen := map[string]bool{}
	order := append(append([]string(nil), t.ring[t.next:]...), t.ring[:t.next]...)
	for _, id := range order {
		if r, ok := t.byID[id]; ok && !seen[id] {
			out = append(out, r)
			seen[id] = true
		}
	}
	return out
}

// StageSnapshots returns the per-stage duration histograms, sorted by
// stage name.
func (t *Tracer) StageSnapshots() []LabeledSnapshot {
	if t == nil {
		return nil
	}
	return t.stages.Snapshot()
}

// chromeEvent is one Chrome trace-event ("X" = complete event). The
// format is what chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeEvents renders one flight as Chrome trace events: a root event
// spanning the whole flight plus one event per span, all on the given
// tid. base is the epoch the ts offsets are relative to (use the
// earliest flight start when exporting several flights together).
func ChromeEvents(r FlightRecord, base time.Time, tid int) []chromeEvent {
	off := float64(r.Start.Sub(base).Microseconds())
	evs := make([]chromeEvent, 0, len(r.Spans)+1)
	evs = append(evs, chromeEvent{
		Name: "job " + r.Label, Ph: "X",
		Ts: off, Dur: float64(r.Total.Microseconds()),
		Pid: 1, Tid: tid,
		Args: map[string]string{"trace_id": r.ID},
	})
	for _, s := range r.Spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: off + float64(s.Start.Microseconds()), Dur: float64(s.Dur.Microseconds()),
			Pid: 1, Tid: tid,
		})
	}
	return evs
}

// WriteChrome writes every retained flight as one Chrome trace-event
// JSON document ({"traceEvents": [...]}), each flight on its own tid.
func (t *Tracer) WriteChrome(w io.Writer) error {
	recs := t.Records()
	var base time.Time
	for i, r := range recs {
		if i == 0 || r.Start.Before(base) {
			base = r.Start
		}
	}
	all := make([]chromeEvent, 0, len(recs)*8)
	for i, r := range recs {
		all = append(all, ChromeEvents(r, base, i+1)...)
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: all}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteChromeFlight writes a single flight as a standalone Chrome
// trace-event document (the ?format=chrome rendering of /v1/trace/{id}).
func WriteChromeFlight(w io.Writer, r FlightRecord) error {
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: ChromeEvents(r, r.Start, 1)}
	return json.NewEncoder(w).Encode(doc)
}

// FormatFlight pretty-prints a flight's span tree for terminals
// (fleetctl trace). Spans are listed in start order with offsets and
// durations; the footer carries the gap-accounted remainder.
func FormatFlight(r FlightRecord) string {
	spans := append([]Span(nil), r.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var b []byte
	b = fmt.Appendf(b, "trace %s  %s  total %s\n", r.ID, r.Label, r.Total.Round(time.Microsecond))
	for _, s := range spans {
		b = fmt.Appendf(b, "  %-10s +%-12s %s\n",
			s.Name, s.Start.Round(time.Microsecond), s.Dur.Round(time.Microsecond))
	}
	b = fmt.Appendf(b, "  %-10s %s\n", "(gap)", r.Unaccounted().Round(time.Microsecond))
	return string(b)
}
