// GET /metrics: the engine and store counters in Prometheus text
// exposition format (version 0.0.4), hand-rendered — the daemon has no
// business pulling in a metrics dependency for a dozen gauges. The same
// numbers are available as JSON from /v1/stats; this endpoint exists so a
// fleet of clusterd workers can be scraped by stock monitoring.
package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"clustersim/internal/obs"
	"clustersim/internal/store"
)

// metric is one exposition family rendered with zero or one label pairs.
type metric struct {
	name string
	help string
	typ  string // "counter" or "gauge"
	rows []metricRow
}

type metricRow struct {
	labels string // rendered label set incl. braces, "" for none
	value  float64
}

func (m metric) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
	for _, r := range m.rows {
		// %g keeps integers integral and avoids trailing zeros.
		fmt.Fprintf(b, "%s%s %g\n", m.name, r.labels, r.value)
	}
}

func one(v int64) []metricRow { return []metricRow{{value: float64(v)}} }

// histogramFamily renders one Prometheus histogram family from labeled
// obs snapshots: cumulative _bucket series with an explicit +Inf, then
// _sum and _count per series. labelNames maps the snapshot's positional
// label values ("route"/"code", or "stage") onto exposition labels.
type histogramFamily struct {
	name       string
	help       string
	labelNames []string
	series     []obs.LabeledSnapshot
}

func (h histogramFamily) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for _, ls := range h.series {
		var pairs []string
		for i, n := range h.labelNames {
			if i < len(ls.Labels) {
				pairs = append(pairs, fmt.Sprintf("%s=%q", n, ls.Labels[i]))
			}
		}
		base := strings.Join(pairs, ",")
		sep := ""
		if base != "" {
			sep = ","
		}
		for i, bound := range ls.Bounds {
			fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n",
				h.name, base, sep, strconv.FormatFloat(bound, 'g', -1, 64), ls.Counts[i])
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.name, base, sep, ls.Counts[len(ls.Counts)-1])
		suffix := ""
		if base != "" {
			suffix = "{" + base + "}"
		}
		fmt.Fprintf(b, "%s_sum%s %g\n", h.name, suffix, ls.Sum)
		fmt.Fprintf(b, "%s_count%s %d\n", h.name, suffix, ls.Count)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	eng := s.eng.Stats()

	s.mu.Lock()
	active := len(s.subs) - len(s.retired)
	retired := len(s.retired)
	swept := s.swept
	s.mu.Unlock()

	metrics := []metric{
		{"clusterd_engine_simulations_total", "Pipeline executions (cache misses all the way down).", "counter", one(eng.Simulations)},
		{"clusterd_engine_result_hits_total", "Whole-result cache hits.", "counter", one(eng.ResultHits)},
		{"clusterd_engine_result_misses_total", "Whole-result cache misses.", "counter", one(eng.ResultMisses)},
		{"clusterd_engine_program_hits_total", "Annotated-program cache hits.", "counter", one(eng.ProgramHits)},
		{"clusterd_engine_program_misses_total", "Annotated-program cache misses.", "counter", one(eng.ProgramMisses)},
		{"clusterd_engine_store_hits_total", "Persistent result-store hits.", "counter", one(eng.StoreHits)},
		{"clusterd_engine_store_misses_total", "Persistent result-store misses.", "counter", one(eng.StoreMisses)},
		{"clusterd_engine_store_errors_total", "Undecodable or unencodable result blobs.", "counter", one(eng.StoreErrors)},
		{"clusterd_engine_core_pool_hits_total", "Simulations served by a pooled core (Reset, no construction).", "counter", one(eng.CorePoolHits)},
		{"clusterd_engine_core_pool_misses_total", "Simulations that constructed a fresh core.", "counter", one(eng.CorePoolMisses)},
		{"clusterd_submissions_active", "Submissions with jobs still running.", "gauge", one(int64(active))},
		{"clusterd_submissions_retained", "Completed submissions still queryable.", "gauge", one(int64(retired))},
		{"clusterd_submissions_swept_total", "Completed submissions evicted by the TTL sweep.", "counter", one(swept)},
		{"clusterd_sse_marshals_total", "Job events JSON-encoded (once per event, shared by all subscribers).", "counter", one(s.sseMarshals.Load())},
		{"clusterd_sse_frames_total", "Shared SSE result frames written to subscribers.", "counter", one(s.sseFrames.Load())},
		{"clusterd_sse_bytes_total", "Bytes of SSE result frames written to subscribers.", "counter", one(s.sseBytes.Load())},
		{"clusterd_sse_slow_disconnects_total", "SSE subscribers dropped for not draining a frame within the write timeout.", "counter", one(s.sseSlowDisconnects.Load())},
		{"clusterd_engine_lane_grants_total", "Worker-slot grants by scheduling lane.", "counter", []metricRow{
			{labels: `{lane="interactive"}`, value: float64(eng.InteractiveGrants)},
			{labels: `{lane="bulk"}`, value: float64(eng.BulkGrants)},
		}},
		{"clusterd_engine_deadline_shed_total", "Jobs shed before execution because their deadline had expired.", "counter", one(eng.DeadlineShed)},
		{"clusterd_result_not_modified_total", "Result fetches answered 304 via If-None-Match (no store read, no body).", "counter", one(s.notModified.Load())},
		{"clusterd_result_uploads_total", "Validated result blobs accepted over PUT /v1/results (drain migrations, backfills).", "counter", one(s.resultUploads.Load())},
		{"clusterd_key_pages_total", "GET /v1/keys pages served.", "counter", one(s.keyPages.Load())},
		{"clusterd_ring_epoch", "Coordinator membership epoch (0 when not a coordinator).", "gauge", one(s.ringEpoch())},
		{"clusterd_ring_transitions_total", "Membership transitions this coordinator accepted.", "counter", one(s.ringTransitions.Load())},
		{"clusterd_ring_conflicts_total", "Ring proposals refused for a stale base epoch.", "counter", one(s.ringConflicts.Load())},
		{"clusterd_store_get_collapses_total", "Cold store Gets that joined another caller's in-flight slow-tier fetch.", "counter", one(s.st.Stats().Collapses)},
	}

	if s.adm != nil {
		adm := s.adm.Stats()
		metrics = append(metrics,
			metric{"clusterd_admission_admitted_total", "Jobs admitted past admission control.", "counter", one(adm.Admitted)},
			metric{"clusterd_admission_rejects_total", "Submissions refused 429, by reason.", "counter", []metricRow{
				{labels: `{reason="rate_limited"}`, value: float64(adm.RejectedRate)},
				{labels: `{reason="quota_exceeded"}`, value: float64(adm.RejectedQuota)},
			}},
			metric{"clusterd_admission_in_flight", "Admitted jobs not yet finished, across all tenants.", "gauge", one(adm.InFlight)},
			metric{"clusterd_admission_tenants", "Tenant identities currently tracked.", "gauge", one(int64(adm.Tenants))},
		)
	}

	tiers := []struct {
		label string
		stats store.Stats
	}{{"all", s.st.Stats()}}
	if tiered, ok := s.st.(*store.Tiered); ok {
		fast, slow := tiered.Layers()
		tiers = append(tiers,
			struct {
				label string
				stats store.Stats
			}{"memory", fast},
			struct {
				label string
				stats store.Stats
			}{"disk", slow})
	}
	storeMetric := func(name, help, typ string, get func(store.Stats) int64) metric {
		m := metric{name: name, help: help, typ: typ}
		for _, t := range tiers {
			m.rows = append(m.rows, metricRow{
				labels: fmt.Sprintf(`{tier=%q}`, t.label),
				value:  float64(get(t.stats)),
			})
		}
		return m
	}
	metrics = append(metrics,
		storeMetric("clusterd_store_hits_total", "Store Get hits by tier.", "counter", func(st store.Stats) int64 { return st.Hits }),
		storeMetric("clusterd_store_misses_total", "Store Get misses by tier.", "counter", func(st store.Stats) int64 { return st.Misses }),
		storeMetric("clusterd_store_puts_total", "Blobs accepted by tier.", "counter", func(st store.Stats) int64 { return st.Puts }),
		storeMetric("clusterd_store_evictions_total", "Entries dropped by capacity bounds, by tier.", "counter", func(st store.Stats) int64 { return st.Evictions }),
		storeMetric("clusterd_store_errors_total", "I/O failures and corrupt blobs, by tier.", "counter", func(st store.Stats) int64 { return st.Errors }),
		storeMetric("clusterd_store_entries", "Stored blobs by tier.", "gauge", func(st store.Stats) int64 { return st.Entries }),
		storeMetric("clusterd_store_bytes", "Payload occupancy by tier.", "gauge", func(st store.Stats) int64 { return st.Bytes }),
		storeMetric("clusterd_store_shards", "Lock stripes by tier (0 = unstriped).", "gauge", func(st store.Stats) int64 { return st.Shards }),
		storeMetric("clusterd_store_shard_bytes_high_water", "Maximum occupancy any single shard reached, by tier.", "gauge", func(st store.Stats) int64 { return st.ShardBytesHighWater }),
	)

	var b strings.Builder
	for _, m := range metrics {
		m.render(&b)
	}
	histogramFamily{
		name:       "clusterd_http_request_seconds",
		help:       "HTTP request latency by route pattern and status code.",
		labelNames: []string{"route", "code"},
		series:     s.httpHist.Snapshot(),
	}.render(&b)
	if tr := s.eng.Tracer(); tr != nil {
		histogramFamily{
			name:       "clusterd_engine_stage_seconds",
			help:       "Engine per-stage span durations (queue, annotate, expand, execute, encode, store_put, store_get, cache_hit).",
			labelNames: []string{"stage"},
			series:     tr.StageSnapshots(),
		}.render(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, b.String())
}
