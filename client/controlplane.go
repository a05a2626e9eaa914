// Control-plane calls (protocol v3): key enumeration, raw result
// fetch/upload, and the coordinator's ring register. These are what let
// *Client satisfy the controlplane package's CoordClient, Source, and
// Sink interfaces — a fleet drains, backfills, and coordinates through
// the same typed SDK it submits jobs with.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"clustersim/internal/api"
)

// Keys fetches one page of the worker's stored logical keys. limit caps
// the page size (0 accepts the server's default); cursor is "" for the
// first page and the previous page's next value afterwards. The
// returned next cursor is "" when the listing is exhausted.
func (c *Client) Keys(ctx context.Context, limit int, cursor string) (keys []string, next string, err error) {
	path := "/v1/keys"
	q := url.Values{}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp api.KeysResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, "", err
	}
	return resp.Keys, resp.Next, nil
}

// RawResult fetches a stored result's encoded codec blob verbatim — the
// bytes a drain or backfill re-uploads to another worker, kept opaque so
// the migration is byte-exact whatever codec version wrote them. It is
// the one raw fetch: Result decodes what it returns. Each call reports to
// the call observer under "/v1/results".
func (c *Client) RawResult(ctx context.Context, key string) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		"/v1/results?raw=1&key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe("/v1/results", 0, start)
		return nil, fmt.Errorf("client: fetching result blob: %w", err)
	}
	c.observe("/v1/results", resp.StatusCode, start)
	defer resp.Body.Close()
	if err := checkVersion(resp); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading result blob: %w", err)
	}
	return blob, nil
}

// PutResult uploads one encoded result blob under its logical key. The
// server validates that the blob decodes before storing it. Each call
// reports to the call observer under "/v1/results", like RawResult, so a
// drain's or backfill's uploads are timed beside its fetches.
func (c *Client) PutResult(ctx context.Context, key string, blob []byte) error {
	req, err := c.newRequest(ctx, http.MethodPut,
		"/v1/results?key="+url.QueryEscape(key), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe("/v1/results", 0, start)
		return fmt.Errorf("client: uploading result: %w", err)
	}
	c.observe("/v1/results", resp.StatusCode, start)
	defer resp.Body.Close()
	if err := checkVersion(resp); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Ring fetches a coordinator's current membership view.
func (c *Client) Ring(ctx context.Context) (*api.RingView, error) {
	var view api.RingView
	if err := c.do(ctx, http.MethodGet, "/v1/ring", nil, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// ProposeRing compare-and-swaps one membership transition against the
// coordinator's epoch. On success it returns the view the transition
// produced; a stale base epoch comes back as an *api.Error with code
// api.CodeEpochConflict (and a nil view — re-sync with Ring and retry).
func (c *Client) ProposeRing(ctx context.Context, t api.RingTransition) (*api.RingView, error) {
	var view api.RingView
	if err := c.do(ctx, http.MethodPost, "/v1/ring", t, &view); err != nil {
		return nil, err
	}
	return &view, nil
}
