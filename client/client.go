// Package client is the typed Go SDK for the clusterd HTTP API. It speaks
// the versioned wire protocol of internal/api — submit declarative job
// specs (single or batch), follow a submission's progress as server-sent
// events with automatic reconnect and exponential backoff, fetch full
// results by content key through the engine codec, and read engine/store
// statistics.
//
// Client is the transport; Runner (runner.go) layers the engine.Runner
// interface on top of it, which is what makes a clusterd instance an
// interchangeable drop-in for a local *engine.Engine everywhere the code
// base accepts a Runner.
//
//	c, _ := client.New("http://localhost:8080")
//	sub, _ := c.Submit(ctx, []clustersim.JobSpec{{Simpoint: "gzip-1",
//		Setup: engine.SetupSpec{Kind: "VC", NumClusters: 2}}})
//	c.Stream(ctx, sub.ID, func(ev api.JobEvent) { fmt.Println(ev.Setup, ev.IPC) })
//	res, _ := c.Result(ctx, sub.Keys[0])
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"clustersim/internal/api"
	"clustersim/internal/engine"
)

// ErrVersionMismatch marks a response from a server speaking a different
// wire-protocol version (or not speaking the protocol at all). The client
// refuses to decode such responses rather than misreading them.
var ErrVersionMismatch = errors.New("client: server wire-protocol version mismatch")

// ErrStreamEnded marks an SSE stream that the server closed before
// reporting the submission done, after reconnect attempts were exhausted.
var ErrStreamEnded = errors.New("client: event stream ended before completion")

// DefaultTransport is the HTTP transport shared by every Client built
// without WithHTTPClient — including every member of a fleet.Runner — so
// all traffic to a worker flows over one warm connection pool. The stock
// http.DefaultTransport keeps only 2 idle connections per host, which
// makes a batch of concurrent submits/fetches against a small fleet
// open and close a TCP connection per request; this transport raises the
// per-host idle pool to match serving-tier concurrency.
var DefaultTransport = newDefaultTransport()

func newDefaultTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	return tr
}

// Client is a typed clusterd API client. It is safe for concurrent use.
type Client struct {
	base          string
	hc            *http.Client
	token         string
	minBackoff    time.Duration
	maxBackoff    time.Duration
	retries       int
	submitRetries int
	rnd           func() float64 // jitter source; injectable for tests
	observer      func(route string, status int, d time.Duration)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, test doubles). The default client has no global timeout —
// SSE streams are long-lived — so bound calls with contexts.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBackoff sets the reconnect backoff window for streaming: delays
// double from min to max across consecutive failures.
func WithBackoff(min, max time.Duration) Option {
	return func(c *Client) { c.minBackoff, c.maxBackoff = min, max }
}

// WithRetries sets how many consecutive failed connection attempts Stream
// tolerates before giving up (progress resets the count).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithSubmitRetries sets the per-batch retry budget Submit spends on 429
// responses before surfacing the rejection (n < 0 disables retrying).
// Each retry waits out the server's Retry-After hint or the client's own
// capped-jittered backoff, whichever is longer.
func WithSubmitRetries(n int) Option { return func(c *Client) { c.submitRetries = n } }

// WithToken attaches "Authorization: Bearer <token>" to every request —
// the credential a clusterd started with -token requires. An empty token
// sends no header.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// WithCallObserver installs a per-call timing hook: fn is invoked after
// every HTTP round trip this client makes with the normalized route
// pattern (never the raw path — IDs and keys are collapsed, so the
// label set stays bounded), the response status (0 on transport
// failure), and the call duration. fn may be called concurrently and
// must be fast; feed an obs.Vec to mirror the server's histograms
// client-side.
func WithCallObserver(fn func(route string, status int, d time.Duration)) Option {
	return func(c *Client) { c.observer = fn }
}

// observe reports one finished round trip to the call observer.
func (c *Client) observe(route string, status int, start time.Time) {
	if c.observer != nil {
		c.observer(route, status, time.Since(start))
	}
}

// routeOf collapses a request path to its route pattern so observer
// labels stay low-cardinality under arbitrary IDs and keys.
func routeOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	switch {
	case strings.HasPrefix(path, "/v1/jobs/"):
		if strings.HasSuffix(path, "/stream") {
			return "/v1/jobs/{id}/stream"
		}
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/trace/"):
		return "/v1/trace/{id}"
	}
	return path
}

// New builds a client for the clusterd instance at baseURL
// ("http://host:8080"). The constructor does not dial the server; the
// first request does.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	c := &Client{
		base:          strings.TrimRight(baseURL, "/"),
		hc:            &http.Client{Transport: DefaultTransport},
		minBackoff:    100 * time.Millisecond,
		maxBackoff:    5 * time.Second,
		retries:       5,
		submitRetries: 4,
		rnd:           rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// checkVersion rejects responses that don't advertise the supported wire
// protocol. A missing header means the endpoint isn't a clusterd server
// (or sits behind something that rewrote the response) — equally unsafe
// to decode.
func checkVersion(resp *http.Response) error {
	got := resp.Header.Get(api.VersionHeader)
	if got == "" {
		return fmt.Errorf("%w: response carries no %s header", ErrVersionMismatch, api.VersionHeader)
	}
	if v, err := strconv.Atoi(got); err != nil || v != api.Version {
		return fmt.Errorf("%w: server speaks v%s, this client speaks v%d", ErrVersionMismatch, got, api.Version)
	}
	return nil
}

// apiError decodes a non-2xx response into an *api.Error, falling back to
// a generic error when the body isn't the uniform JSON shape. A
// Retry-After header (integer seconds, as clusterd sends on 429) is
// carried along so callers can honor the server's pacing hint.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e api.Error
	if err := json.Unmarshal(body, &e); err == nil && e.Code != "" {
		e.Status = resp.StatusCode
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
		return &e
	}
	return fmt.Errorf("client: http %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

// newRequest builds a request against the server, attaching the bearer
// token when one is configured.
func (c *Client) newRequest(ctx context.Context, method, path string, rd io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// do performs one JSON round trip: marshal body (if any), check the
// protocol version, surface API errors, decode into out (if non-nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doHeaders(ctx, method, path, nil, body, out)
}

// doHeaders is do with extra request headers (the trace-ID header rides
// here).
func (c *Client) doHeaders(ctx context.Context, method, path string, hdr map[string]string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe(routeOf(path), 0, start)
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	c.observe(routeOf(path), resp.StatusCode, start)
	defer resp.Body.Close()
	if err := checkVersion(resp); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// submitConfig collects per-submission settings: the request body plus
// out-of-band details like the trace-ID and deadline headers.
type submitConfig struct {
	req       api.SubmitRequest
	traceBase string
	deadline  time.Duration
}

// SubmitOption adjusts one submission.
type SubmitOption func(*submitConfig)

// WithTraceBase seeds the batch's trace-ID base (sent in the
// api.TraceHeader header): the server derives per-job trace IDs as
// "<base>.<index>", so the caller knows every job's trace ID before the
// ack arrives. Invalid bases are ignored server-side (it mints one
// instead); the ack's TraceIDs field is authoritative either way.
func WithTraceBase(base string) SubmitOption {
	return func(sc *submitConfig) { sc.traceBase = base }
}

// WithPriority assigns the batch to a scheduling lane ("interactive" or
// "bulk"; empty means interactive). Bulk batches yield worker slots to
// interactive ones under contention instead of queueing FIFO.
func WithPriority(lane string) SubmitOption {
	return func(sc *submitConfig) { sc.req.Priority = lane }
}

// WithDeadline bounds the batch server-side: jobs not finished within d
// of admission are canceled or shed with code "deadline_exceeded". Sent
// as the api.DeadlineHeader header; non-positive d sends nothing.
func WithDeadline(d time.Duration) SubmitOption {
	return func(sc *submitConfig) { sc.deadline = d }
}

// Submit sends a batch of job specs and returns the submission ack: the
// submission id to stream, each job's result content key, and each
// job's trace ID.
//
// A 429 (rate limit or quota) is retried up to the WithSubmitRetries
// budget, sleeping the server's Retry-After hint or the client's own
// capped-jittered backoff — whichever is longer — between attempts.
// Other errors, including context cancellation, surface immediately.
func (c *Client) Submit(ctx context.Context, specs []engine.JobSpec, opts ...SubmitOption) (*api.SubmitResponse, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("client: empty submission")
	}
	sc := submitConfig{req: api.SubmitRequest{Jobs: specs}}
	for _, o := range opts {
		o(&sc)
	}
	hdr := map[string]string{}
	if sc.traceBase != "" {
		hdr[api.TraceHeader] = sc.traceBase
	}
	if sc.deadline > 0 {
		hdr[api.DeadlineHeader] = strconv.FormatInt(sc.deadline.Milliseconds(), 10)
	}
	for attempt := 0; ; attempt++ {
		var resp api.SubmitResponse
		err := c.doHeaders(ctx, http.MethodPost, "/v1/jobs", hdr, sc.req, &resp)
		if err == nil {
			return &resp, nil
		}
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || attempt >= c.submitRetries {
			return nil, err
		}
		delay := backoffDelay(attempt+1, c.minBackoff, c.maxBackoff, c.rnd)
		if apiErr.RetryAfter > delay {
			delay = apiErr.RetryAfter
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// SubmitOne submits a single job spec.
func (c *Client) SubmitOne(ctx context.Context, spec engine.JobSpec) (*api.SubmitResponse, error) {
	return c.Submit(ctx, []engine.JobSpec{spec})
}

// Status fetches a submission's progress snapshot.
func (c *Client) Status(ctx context.Context, id string) (*api.StatusResponse, error) {
	var resp api.StatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's engine and store counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var resp api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Trace fetches a completed job's span tree by trace ID (from a submit
// ack's TraceIDs). Jobs still running — and traces evicted from the
// server's bounded ring — answer not_found; poll after completion.
func (c *Client) Trace(ctx context.Context, id string) (*api.TraceResponse, error) {
	var resp api.TraceResponse
	if err := c.do(ctx, http.MethodGet, "/v1/trace/"+url.PathEscape(id), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ResultSummary fetches the JSON rendering of a stored result.
func (c *Client) ResultSummary(ctx context.Context, key string) (*api.ResultResponse, error) {
	var resp api.ResultResponse
	path := "/v1/results?key=" + url.QueryEscape(key)
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Result fetches a stored result's raw codec blob and decodes it into a
// full *engine.Result (metrics, complexity accounting). The result's
// Simpoint carries identity only — attach the local simpoint if row
// matching matters (Runner does).
func (c *Client) Result(ctx context.Context, key string) (*engine.Result, error) {
	blob, err := c.RawResult(ctx, key)
	if err != nil {
		return nil, err
	}
	res, err := engine.DecodeResult(blob)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return res, nil
}

// Stream follows a submission's event stream, invoking fn once per
// completed job, and returns nil once the server reports the submission
// done. Transport failures mid-stream reconnect with exponential backoff;
// the server replays completed events on reconnect and Stream suppresses
// the ones it already delivered, so fn observes each job exactly once.
// fn is called from Stream's goroutine; it must not block indefinitely.
func (c *Client) Stream(ctx context.Context, id string, fn func(api.JobEvent)) error {
	delivered := 0
	failures := 0
	for {
		n, done, err := c.streamOnce(ctx, id, delivered, fn)
		delivered += n
		if done {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// A protocol-level refusal (unknown/expired submission, version
		// mismatch) will not heal by retrying.
		var apiErr *api.Error
		if errors.As(err, &apiErr) || errors.Is(err, ErrVersionMismatch) {
			return err
		}
		if n > 0 {
			failures = 0 // the connection made progress; restart the budget
		}
		failures++
		if failures > c.retries {
			if err == nil {
				err = ErrStreamEnded
			}
			return fmt.Errorf("client: stream failed after %d attempts: %w", failures, err)
		}
		select {
		case <-time.After(backoffDelay(failures, c.minBackoff, c.maxBackoff, c.rnd)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// streamOnce runs one SSE connection, skipping the first skip result
// events (already delivered on a previous connection). It returns how
// many new events it delivered and whether the server reported done.
func (c *Client) streamOnce(ctx context.Context, id string, skip int, fn func(api.JobEvent)) (delivered int, done bool, err error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		"/v1/jobs/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe("/v1/jobs/{id}/stream", 0, start)
		return 0, false, fmt.Errorf("client: opening stream: %w", err)
	}
	// For the SSE route the observed duration is time-to-connect, not
	// stream lifetime — the comparable "how fast does the server answer"
	// number.
	c.observe("/v1/jobs/{id}/stream", resp.StatusCode, start)
	defer resp.Body.Close()
	if err := checkVersion(resp); err != nil {
		return 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, apiError(resp)
	}

	seen := 0
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "done":
				return delivered, true, nil
			case "result":
				seen++
				if seen <= skip {
					continue // replayed from before the reconnect
				}
				var ev api.JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return delivered, false, fmt.Errorf("client: undecodable event: %w", err)
				}
				fn(ev)
				delivered++
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return delivered, false, fmt.Errorf("client: reading stream: %w", err)
	}
	return delivered, false, nil // EOF before done: caller reconnects
}
