package serve

// The /metrics surface. Every value it renders lives in one place: the
// server's obs.Recorder (counters, latency histograms, rejects by
// reason), the store, the scheduler (queue and Scratch memory) and the
// trace cache, all read by one StatsSnapshot per scrape — the value
// /stats serves. The tables below render every family from that
// snapshot, so one exposition reads each source once:
// sweep_inflight_points always equals sweep_queue_depth plus
// sweep_running_points, and every counter agrees with a /stats body
// taken at the same instant. Nothing in this file may influence a sweep
// body; the telemetry-inertness test pins that.

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/promtext"
)

// serverMetrics is the /metrics registry and its scrape lock; a Server
// has none when metrics are disabled.
type serverMetrics struct {
	reg *promtext.Registry

	scrapeMu sync.Mutex // held from snapshot to rendered body; guards cur
	cur      Stats      // the snapshot the families read while rendering
}

// statFamily is one /metrics family rendered from the scrape's Stats.
type statFamily struct {
	name, help, typ string // typ is "counter" or "gauge"
	value           func(*Stats) float64
}

// recCounter reads one recorder counter from the snapshot.
func recCounter(name string) func(*Stats) float64 {
	return func(st *Stats) float64 { return float64(st.Telemetry.Counters[name]) }
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
	{"sweep_simulations_total", "Simulations actually executed (misses that ran).", "counter", recCounter("simulations")},
	{"sweep_prewarms_total", "Memory-template prewarms the workers' Scratches ran.", "counter", recCounter("prewarms")},
	{"sweep_point_cache_hits_total", "Points served from the result store or joined in flight.", "counter", func(st *Stats) float64 { return float64(st.CacheHits) }},
	{"sweep_point_cache_misses_total", "Points that required a fresh simulation.", "counter", func(st *Stats) float64 { return float64(st.CacheMisses) }},
	{"sweep_dedup_joins_total", "Singleflight joins onto an already in-flight point.", "counter", func(st *Stats) float64 { return float64(st.DedupJoins) }},
	{"sweep_delta_pulls_total", "Completed GET /results delta-sync pulls.", "counter", recCounter("delta_pulls")},

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
	{"scratch_bytes", "Bytes the workers' simulation Scratches retain between points.", "gauge", func(st *Stats) float64 { return float64(st.ScratchBytes) }},

	{"sweep_stream_bytes_total", "Response-body bytes written by /sweep streams.", "counter", recCounter("stream_bytes")},
	{"sweep_slow_requests_total", "Requests slower than the -slow-request threshold.", "counter", recCounter("slow_requests")},
	{"sweep_http_requests_inflight", "HTTP requests currently being served, all endpoints.", "gauge", recCounter("http_requests_inflight")},
	{"sweep_uptime_seconds", "Seconds since the server was built.", "gauge", func(st *Stats) float64 { return st.UptimeSeconds }},
}

// histFamilies lists the latency histograms, each rendered from the
// recorder histogram its row names.
var histFamilies = []struct{ name, help, hist string }{
	{"sweep_request_seconds", "End-to-end /sweep request latency in seconds, rejects included.", "request_latency"},
	{"sweep_stream_seconds", "NDJSON stream duration in seconds, from admission to last byte.", "stream_duration"},
	{"sweep_queue_wait_seconds", "Seconds a point waited between admission and simulation start.", "point_queue_wait"},
}

// newServerMetrics builds the registry for one Server, or returns nil
// when metrics are disabled. The families read m.cur, except
// sweep_draining and build_info, which read the Server itself.
func newServerMetrics(enabled bool, s *Server) *serverMetrics {
	if !enabled {
		return nil
	}
	m := &serverMetrics{reg: promtext.NewRegistry()}
	for _, f := range statFamilies {
		fn := func() float64 { return f.value(&m.cur) }
		if f.typ == "counter" {
			m.reg.NewCounterFunc(f.name, f.help, fn)
		} else {
			m.reg.NewGaugeFunc(f.name, f.help, fn)
		}
	}
	for _, f := range histFamilies {
		m.reg.NewHistogramFunc(f.name, f.help, func() obs.Histogram { return m.cur.Telemetry.Histogram(f.hist) })
	}
	m.reg.NewCounterVecFunc("sweep_rejects_total", "Rejected /sweep requests by reason.", "reason",
		func(cell func(string, float64)) {
			for _, reason := range rejectReasons {
				if n := m.cur.Telemetry.Counters[rejectCounter(reason)]; n > 0 {
					cell(reason, float64(n))
				}
			}
		})
	m.reg.NewGaugeFunc("sweep_draining",
		"1 once BeginDrain has been called, else 0.", func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	m.reg.NewInfo("build_info",
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
	if m == nil {
		http.NotFound(w, r)
		return
	}
	var body bytes.Buffer
	m.scrapeMu.Lock()
	m.cur = s.StatsSnapshot()
	m.reg.WriteTo(&body)
	m.scrapeMu.Unlock()
	w.Header().Set("Content-Type", promtext.ContentType)
	w.Write(body.Bytes())
}
