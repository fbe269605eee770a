package serve

// The /metrics surface. Everything here is derived observation: the
// counters a scrape renders are either read at scrape time from the same
// obs.Recorder and store.Stats() that back /stats (so the two endpoints
// can never disagree — one source of truth, two renderings), or are
// serving-layer instruments (latency histograms, reject reasons) that
// /stats never carried. Nothing in this file may influence a sweep body;
// the telemetry-inertness test pins that.

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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
}

// counterFromRec bridges one obs.Recorder counter into the registry,
// read at scrape time.
func counterFromRec(reg *promtext.Registry, rec *obs.Recorder, name, help, key string) {
	reg.NewCounterFunc(name, help, func() float64 { return float64(rec.Counter(key)) })
}

// newServerMetrics builds the registry for one Server. The collectors
// close over s and read s.sched / s.cfg.Store lazily at scrape time, so
// this runs before the scheduler exists; disabled metrics produce a nil
// registry whose Handler serves 404.
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

	// Request/point economy: the same recorder counters /stats renders.
	rec := s.rec
	counterFromRec(reg, rec, "sweep_requests_total",
		"Admitted /sweep requests.", "requests")
	counterFromRec(reg, rec, "sweep_requests_rejected_total",
		"Rejected /sweep requests, all reasons.", "requests_rejected")
	counterFromRec(reg, rec, "sweep_client_disconnects_total",
		"Streams dropped by the client before completion.", "client_disconnects")
	counterFromRec(reg, rec, "sweep_points_done_total",
		"Points simulated and published.", "points_done")
	counterFromRec(reg, rec, "sweep_points_dropped_total",
		"Admitted points abandoned by every requester before running.", "points_dropped")
	counterFromRec(reg, rec, "sweep_simulations_total",
		"Simulations actually executed (misses that ran).", "simulations")
	counterFromRec(reg, rec, "sweep_prewarms_total",
		"Memory-template prewarms the workers' Scratches ran.", "prewarms")
	counterFromRec(reg, rec, "sweep_point_cache_hits_total",
		"Points served from the result store or joined in flight.", "point_cache_hits")
	counterFromRec(reg, rec, "sweep_point_cache_misses_total",
		"Points that required a fresh simulation.", "point_cache_misses")
	counterFromRec(reg, rec, "sweep_dedup_joins_total",
		"Singleflight joins onto an already in-flight point.", "dedup_joins")
	counterFromRec(reg, rec, "sweep_delta_pulls_total",
		"Completed GET /results delta-sync pulls.", "delta_pulls")

	// Live queue gauges, read from the scheduler at scrape time.
	reg.NewGaugeFunc("sweep_queue_depth",
		"Admitted points waiting for a batch.", func() float64 {
			q, _, _, _ := s.sched.gauges()
			return float64(q)
		})
	reg.NewGaugeFunc("sweep_running_points",
		"Points in batches the workers are running.", func() float64 {
			_, r, _, _ := s.sched.gauges()
			return float64(r)
		})
	reg.NewGaugeFunc("sweep_inflight_points",
		"Queued plus running points.", func() float64 {
			q, r, _, _ := s.sched.gauges()
			return float64(q + r)
		})
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

	// Store economy, one Stats() snapshot per family read. Counter-like
	// fields render as counters (they are monotone inside one process);
	// occupancy fields as gauges.
	reg.NewGaugeFunc("store_mem_entries",
		"Result lines resident in the warm layer.",
		func() float64 { return float64(s.cfg.Store.Stats().MemEntries) })
	reg.NewGaugeFunc("store_mem_bytes",
		"Bytes of result lines resident in the warm layer.",
		func() float64 { return float64(s.cfg.Store.Stats().MemBytes) })
	reg.NewCounterFunc("store_evictions_total",
		"Warm-layer LRU evictions.",
		func() float64 { return float64(s.cfg.Store.Stats().Evictions) })
	reg.NewCounterFunc("store_warm_hits_total",
		"Hits served from warm-start replayed lines.",
		func() float64 { return float64(s.cfg.Store.Stats().WarmHits) })
	reg.NewCounterFunc("store_disk_hits_total",
		"Hits re-read from a segment after a memory miss.",
		func() float64 { return float64(s.cfg.Store.Stats().DiskHits) })
	reg.NewGaugeFunc("store_disk_entries",
		"Distinct keys indexed in the segment log.",
		func() float64 { return float64(s.cfg.Store.Stats().DiskEntries) })
	reg.NewGaugeFunc("store_segments",
		"Live segment files.",
		func() float64 { return float64(s.cfg.Store.Stats().Segments) })
	reg.NewGaugeFunc("store_bytes",
		"Total bytes across live segment files.",
		func() float64 { return float64(s.cfg.Store.Stats().StoreBytes) })
	reg.NewCounterFunc("store_compactions_total",
		"Sealed segments retired by the compaction coordinator.",
		func() float64 { return float64(s.cfg.Store.Stats().Compactions) })
	reg.NewCounterFunc("store_append_errors_total",
		"Failed segment appends (result stayed memory-only).",
		func() float64 { return float64(s.cfg.Store.Stats().AppendErrors) })
	reg.NewCounterFunc("store_read_errors_total",
		"Indexed records that could not be re-read (served as a miss).",
		func() float64 { return float64(s.cfg.Store.Stats().ReadErrors) })
	reg.NewGaugeFunc("store_cursor",
		"Highest assigned delta-sync cursor.",
		func() float64 { return float64(s.cfg.Store.Stats().Cursor) })

	// The process-wide trace cache, the same source /stats reads.
	reg.NewGaugeFunc("trace_cache_traces",
		"Traces held in the process-wide trace cache.",
		func() float64 { t, _ := core.TraceCacheStats(); return float64(t) })
	reg.NewGaugeFunc("trace_cache_bytes",
		"Bytes of instruction columns held by the cached traces.",
		func() float64 { _, b := core.TraceCacheStats(); return float64(b) })

	reg.NewInfo("build_info",
		"Build metadata; code_version is the cache-key version stamp.",
		map[string]string{
			"code_version": s.cfg.CodeVersion,
			"go":           runtime.Version(),
		})
	return m
}
