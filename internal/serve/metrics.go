package serve

// The /metrics surface. A scrape takes one Server.snapshot — the value
// /stats serves, minus its duration summaries — and renders every
// stats family in the table below from it, so one exposition reads each
// source once: sweep_inflight_points always equals sweep_queue_depth
// plus sweep_running_points, and every counter agrees with a /stats
// body taken at the same instant. The serving-path instruments (latency
// histograms, reject reasons, stream bytes) are direct promtext
// instruments that /stats never carried. Nothing in this file may
// influence a sweep body; the telemetry-inertness test pins that.

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs/promtext"
)

// serverMetrics bundles the daemon's direct instruments. It is always
// non-nil on a Server; with metrics disabled the registry and every
// instrument are nil and each call no-ops (promtext's nil-safety), so
// call sites never guard.
type serverMetrics struct {
	reg *promtext.Registry

	reqSeconds    *promtext.Histogram  // sweep_request_seconds
	streamSeconds *promtext.Histogram  // sweep_stream_seconds
	queueWait     *promtext.Histogram  // sweep_queue_wait_seconds
	rejects       *promtext.CounterVec // sweep_rejects_total{reason}
	streamBytes   *promtext.Counter    // sweep_stream_bytes_total
	slow          *promtext.Counter    // sweep_slow_requests_total
	httpInflight  *promtext.Gauge      // sweep_http_requests_inflight

	scrapeMu sync.Mutex // held from snapshot to rendered body; guards cur
	cur      Stats      // the snapshot statFamilies read while rendering
}

// statFamily is one /metrics family rendered from the scrape's Stats.
type statFamily struct {
	name, help, typ string // typ is "counter" or "gauge"
	value           func(*Stats) float64
}

// statFamilies lists every family read from the snapshot. Counter-like
// store fields render as counters (they are monotone inside one
// process); occupancy fields as gauges.
var statFamilies = []statFamily{
	{"sweep_requests_total", "Admitted /sweep requests.", "counter", func(st *Stats) float64 { return float64(st.Requests) }},
	{"sweep_requests_rejected_total", "Rejected /sweep requests, all reasons.", "counter", func(st *Stats) float64 { return float64(st.Rejected) }},
	{"sweep_client_disconnects_total", "Streams dropped by the client before completion.", "counter", func(st *Stats) float64 { return float64(st.Disconnects) }},
	{"sweep_points_done_total", "Points simulated and published.", "counter", func(st *Stats) float64 { return float64(st.PointsDone) }},
	{"sweep_points_dropped_total", "Admitted points abandoned by every requester before running.", "counter", func(st *Stats) float64 { return float64(st.PointsDropped) }},
	{"sweep_simulations_total", "Simulations actually executed (misses that ran).", "counter", func(st *Stats) float64 { return float64(st.Telemetry.Counters["simulations"]) }},
	{"sweep_prewarms_total", "Memory-template prewarms the workers' Scratches ran.", "counter", func(st *Stats) float64 { return float64(st.Telemetry.Counters["prewarms"]) }},
	{"sweep_point_cache_hits_total", "Points served from the result store or joined in flight.", "counter", func(st *Stats) float64 { return float64(st.CacheHits) }},
	{"sweep_point_cache_misses_total", "Points that required a fresh simulation.", "counter", func(st *Stats) float64 { return float64(st.CacheMisses) }},
	{"sweep_dedup_joins_total", "Singleflight joins onto an already in-flight point.", "counter", func(st *Stats) float64 { return float64(st.DedupJoins) }},
	{"sweep_delta_pulls_total", "Completed GET /results delta-sync pulls.", "counter", func(st *Stats) float64 { return float64(st.Telemetry.Counters["delta_pulls"]) }},

	{"sweep_queue_depth", "Admitted points waiting for a batch.", "gauge", func(st *Stats) float64 { return float64(st.QueueDepth) }},
	{"sweep_running_points", "Points in batches the workers are running.", "gauge", func(st *Stats) float64 { return float64(st.RunningPoints) }},
	{"sweep_inflight_points", "Queued plus running points.", "gauge", func(st *Stats) float64 { return float64(st.InflightPoints) }},

	{"store_mem_entries", "Result lines resident in the warm layer.", "gauge", func(st *Stats) float64 { return float64(st.CacheSize) }},
	{"store_mem_bytes", "Bytes of result lines resident in the warm layer.", "gauge", func(st *Stats) float64 { return float64(st.CacheBytes) }},
	{"store_evictions_total", "Warm-layer LRU evictions.", "counter", func(st *Stats) float64 { return float64(st.CacheEvictions) }},
	{"store_warm_hits_total", "Hits served from warm-start replayed lines.", "counter", func(st *Stats) float64 { return float64(st.WarmHits) }},
	{"store_disk_hits_total", "Hits re-read from a segment after a memory miss.", "counter", func(st *Stats) float64 { return float64(st.DiskHits) }},
	{"store_disk_entries", "Distinct keys indexed in the segment log.", "gauge", func(st *Stats) float64 { return float64(st.DiskEntries) }},
	{"store_segments", "Live segment files.", "gauge", func(st *Stats) float64 { return float64(st.Segments) }},
	{"store_bytes", "Total bytes across live segment files.", "gauge", func(st *Stats) float64 { return float64(st.StoreBytes) }},
	{"store_compactions_total", "Sealed segments retired by the compaction coordinator.", "counter", func(st *Stats) float64 { return float64(st.Compactions) }},
	{"store_append_errors_total", "Failed segment appends (result stayed memory-only).", "counter", func(st *Stats) float64 { return float64(st.StoreAppendErrors) }},
	{"store_read_errors_total", "Indexed records that could not be re-read (served as a miss).", "counter", func(st *Stats) float64 { return float64(st.StoreReadErrors) }},
	{"store_cursor", "Highest assigned delta-sync cursor.", "gauge", func(st *Stats) float64 { return float64(st.StoreCursor) }},

	{"trace_cache_traces", "Traces held in the process-wide trace cache.", "gauge", func(st *Stats) float64 { return float64(st.TraceCacheTraces) }},
	{"trace_cache_bytes", "Bytes of instruction columns held by the cached traces.", "gauge", func(st *Stats) float64 { return float64(st.TraceCacheBytes) }},
}

// newServerMetrics builds the registry for one Server. The stats
// families read m.cur and the rest only s.draining and s.start, so this
// runs before the scheduler exists; disabled metrics produce a nil
// registry.
func newServerMetrics(enabled bool, s *Server) *serverMetrics {
	var reg *promtext.Registry
	if enabled {
		reg = promtext.NewRegistry()
	}
	m := &serverMetrics{reg: reg}

	// Serving-path instruments.
	m.reqSeconds = reg.NewHistogram("sweep_request_seconds",
		"End-to-end /sweep request latency in seconds, rejects included.", nil)
	m.streamSeconds = reg.NewHistogram("sweep_stream_seconds",
		"NDJSON stream duration in seconds, from admission to last byte.", nil)
	m.queueWait = reg.NewHistogram("sweep_queue_wait_seconds",
		"Seconds a point waited between admission and simulation start.", nil)
	m.rejects = reg.NewCounterVec("sweep_rejects_total",
		"Rejected /sweep requests by reason.", "reason")
	m.streamBytes = reg.NewCounter("sweep_stream_bytes_total",
		"Response-body bytes written by /sweep streams.")
	m.slow = reg.NewCounter("sweep_slow_requests_total",
		"Requests slower than the -slow-request threshold.")
	m.httpInflight = reg.NewGauge("sweep_http_requests_inflight",
		"HTTP requests currently being served, all endpoints.")

	if reg == nil {
		return m
	}

	for _, f := range statFamilies {
		fn := func() float64 { return f.value(&m.cur) }
		if f.typ == "counter" {
			reg.NewCounterFunc(f.name, f.help, fn)
		} else {
			reg.NewGaugeFunc(f.name, f.help, fn)
		}
	}
	reg.NewGaugeFunc("sweep_draining",
		"1 once BeginDrain has been called, else 0.", func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("sweep_uptime_seconds",
		"Seconds since the server was built.", func() float64 {
			return time.Since(s.start).Seconds()
		})
	reg.NewInfo("build_info",
		"Build metadata; code_version is the cache-key version stamp.",
		map[string]string{
			"code_version": s.cfg.CodeVersion,
			"go":           runtime.Version(),
		})
	return m
}

// handleMetrics is GET /metrics: one snapshot and one render per scrape,
// both under scrapeMu so concurrent scrapes never share cur. The body is
// written after the lock is released, so a slow scraper never holds up
// another. Disabled metrics serve 404.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	if m.reg == nil {
		http.NotFound(w, r)
		return
	}
	var body bytes.Buffer
	m.scrapeMu.Lock()
	m.cur = s.snapshot()
	m.reg.WriteTo(&body)
	m.scrapeMu.Unlock()
	w.Header().Set("Content-Type", promtext.ContentType)
	w.Write(body.Bytes())
}
