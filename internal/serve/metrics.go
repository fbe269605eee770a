package serve

// The /metrics surface. Every value it renders lives in one place: the
// server's obs.Recorder (counters, latency histograms, rejects by
// reason), the store, the scheduler (queue and Scratch memory) and the
// trace cache, all read by one StatsSnapshot per scrape — the value
// /stats serves. The table below renders every family from that
// snapshot, so one exposition reads each source once:
// sweep_inflight_points always equals sweep_queue_depth plus
// sweep_running_points, and every counter agrees with a /stats body
// taken at the same instant. Nothing in this file may influence a sweep
// body; the telemetry-inertness test pins that.

import (
	"net/http"
	"runtime"

	"repro/internal/obs/promtext"
)

// scrape is what one exposition renders: the scrape's snapshot, plus
// the drain flag and build_info's label set, which live on the Server.
type scrape struct {
	st        Stats
	draining  bool
	buildInfo string
}

// writeFunc appends one family's HELP, TYPE and sample lines.
type writeFunc func(b []byte, name, help string, sc *scrape) []byte

// family is one /metrics family.
type family struct {
	name, help string
	write      writeFunc
}

// counter and gauge render a one-sample family read from the snapshot.
// Counter-like store fields render as counters (they are monotone
// inside one process); occupancy fields as gauges.
func counter(v func(*Stats) float64) writeFunc {
	return scalar("counter", v)
}

func gauge(v func(*Stats) float64) writeFunc {
	return scalar("gauge", v)
}

func scalar(typ string, v func(*Stats) float64) writeFunc {
	return func(b []byte, name, help string, sc *scrape) []byte {
		return promtext.AppendScalar(b, name, help, typ, "", v(&sc.st))
	}
}

// recCounter reads one recorder counter from the snapshot.
func recCounter(name string) func(*Stats) float64 {
	return func(st *Stats) float64 { return float64(st.Telemetry.Counters[name]) }
}

// histogram renders the recorder histogram named hist.
func histogram(hist string) writeFunc {
	return func(b []byte, name, help string, sc *scrape) []byte {
		return promtext.AppendHistogram(b, name, help, sc.st.Telemetry.Histogram(hist))
	}
}

// writeRejects renders one cell per reject reason seen, in
// rejectReasons order.
func writeRejects(b []byte, name, help string, sc *scrape) []byte {
	cells := make([]promtext.Cell, 0, len(rejectReasons))
	for _, reason := range rejectReasons {
		if n := sc.st.Telemetry.Counters[rejectCounter(reason)]; n > 0 {
			cells = append(cells, promtext.Cell{Label: reason, Value: float64(n)})
		}
	}
	return promtext.AppendCounterVec(b, name, help, "reason", cells)
}

func writeDraining(b []byte, name, help string, sc *scrape) []byte {
	v := 0.0
	if sc.draining {
		v = 1
	}
	return promtext.AppendScalar(b, name, help, "gauge", "", v)
}

func writeBuildInfo(b []byte, name, help string, sc *scrape) []byte {
	return promtext.AppendScalar(b, name, help, "gauge", sc.buildInfo, 1)
}

// buildInfoLabels is build_info's label set for a code version.
func buildInfoLabels(codeVersion string) string {
	return promtext.Labels("code_version", codeVersion, "go", runtime.Version())
}

// families is every /metrics family, in the name order they render.
var families = []family{
	{"build_info", "Build metadata; code_version is the cache-key version stamp.", writeBuildInfo},
	{"scratch_bytes", "Bytes the workers' simulation Scratches retain between points.", gauge(func(st *Stats) float64 { return float64(st.ScratchBytes) })},
	{"store_append_errors_total", "Failed segment appends (result stayed memory-only).", counter(func(st *Stats) float64 { return float64(st.StoreAppendErrors) })},
	{"store_bytes", "Total bytes across live segment files.", gauge(func(st *Stats) float64 { return float64(st.StoreBytes) })},
	{"store_compactions_total", "Sealed segments retired by the compaction coordinator.", counter(func(st *Stats) float64 { return float64(st.Compactions) })},
	{"store_cursor", "Highest assigned delta-sync cursor.", gauge(func(st *Stats) float64 { return float64(st.StoreCursor) })},
	{"store_disk_entries", "Distinct keys indexed in the segment log.", gauge(func(st *Stats) float64 { return float64(st.DiskEntries) })},
	{"store_disk_hits_total", "Hits re-read from a segment after a memory miss.", counter(func(st *Stats) float64 { return float64(st.DiskHits) })},
	{"store_evictions_total", "Warm-layer LRU evictions.", counter(func(st *Stats) float64 { return float64(st.CacheEvictions) })},
	{"store_mem_bytes", "Bytes of result lines resident in the warm layer.", gauge(func(st *Stats) float64 { return float64(st.CacheBytes) })},
	{"store_mem_entries", "Result lines resident in the warm layer.", gauge(func(st *Stats) float64 { return float64(st.CacheSize) })},
	{"store_read_errors_total", "Indexed records that could not be re-read (served as a miss).", counter(func(st *Stats) float64 { return float64(st.StoreReadErrors) })},
	{"store_segments", "Live segment files.", gauge(func(st *Stats) float64 { return float64(st.Segments) })},
	{"store_warm_hits_total", "Hits served from warm-start replayed lines.", counter(func(st *Stats) float64 { return float64(st.WarmHits) })},
	{"sweep_client_disconnects_total", "Streams dropped by the client before completion.", counter(func(st *Stats) float64 { return float64(st.Disconnects) })},
	{"sweep_dedup_joins_total", "Singleflight joins onto an already in-flight point.", counter(func(st *Stats) float64 { return float64(st.DedupJoins) })},
	{"sweep_delta_pulls_total", "Completed GET /results delta-sync pulls.", counter(recCounter("delta_pulls"))},
	{"sweep_draining", "1 once BeginDrain has been called, else 0.", writeDraining},
	{"sweep_http_requests_inflight", "HTTP requests currently being served, all endpoints.", gauge(recCounter("http_requests_inflight"))},
	{"sweep_inflight_points", "Queued plus running points.", gauge(func(st *Stats) float64 { return float64(st.InflightPoints) })},
	{"sweep_point_cache_hits_total", "Points served from the result store or joined in flight.", counter(func(st *Stats) float64 { return float64(st.CacheHits) })},
	{"sweep_point_cache_misses_total", "Points that required a fresh simulation.", counter(func(st *Stats) float64 { return float64(st.CacheMisses) })},
	{"sweep_points_done_total", "Points simulated and published.", counter(func(st *Stats) float64 { return float64(st.PointsDone) })},
	{"sweep_points_dropped_total", "Admitted points abandoned by every requester before running.", counter(func(st *Stats) float64 { return float64(st.PointsDropped) })},
	{"sweep_prewarms_total", "Memory-template prewarms the workers' Scratches ran.", counter(recCounter("prewarms"))},
	{"sweep_queue_depth", "Admitted points waiting for a batch.", gauge(func(st *Stats) float64 { return float64(st.QueueDepth) })},
	{"sweep_queue_wait_seconds", "Seconds a point waited between admission and simulation start.", histogram("point_queue_wait")},
	{"sweep_rejects_total", "Rejected /sweep requests by reason.", writeRejects},
	{"sweep_request_seconds", "End-to-end /sweep request latency in seconds, rejects included.", histogram("request_latency")},
	{"sweep_requests_rejected_total", "Rejected /sweep requests, all reasons.", counter(func(st *Stats) float64 { return float64(st.Rejected) })},
	{"sweep_requests_total", "Admitted /sweep requests.", counter(func(st *Stats) float64 { return float64(st.Requests) })},
	{"sweep_running_points", "Points in batches the workers are running.", gauge(func(st *Stats) float64 { return float64(st.RunningPoints) })},
	{"sweep_simulations_total", "Simulations actually executed (misses that ran).", counter(recCounter("simulations"))},
	{"sweep_slow_requests_total", "Requests slower than the -slow-request threshold.", counter(recCounter("slow_requests"))},
	{"sweep_stream_bytes_total", "Response-body bytes written by /sweep streams.", counter(recCounter("stream_bytes"))},
	{"sweep_stream_seconds", "NDJSON stream duration in seconds, from admission to last byte.", histogram("stream_duration")},
	{"sweep_uptime_seconds", "Seconds since the server was built.", gauge(func(st *Stats) float64 { return st.UptimeSeconds })},
	{"trace_cache_bytes", "Bytes of instruction columns held by the cached traces.", gauge(func(st *Stats) float64 { return float64(st.TraceCacheBytes) })},
	{"trace_cache_traces", "Traces held in the process-wide trace cache.", gauge(func(st *Stats) float64 { return float64(st.TraceCacheTraces) })},
}

// render appends the whole exposition of sc, family by family.
func (sc *scrape) render(b []byte) []byte {
	for _, f := range families {
		b = f.write(b, f.name, f.help, sc)
	}
	return b
}

// handleMetrics is GET /metrics: one snapshot per scrape, rendered into
// a buffer of the handler's own, so concurrent scrapes share nothing.
// Disabled metrics serve 404.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DisableMetrics {
		http.NotFound(w, r)
		return
	}
	sc := scrape{st: s.StatsSnapshot(), draining: s.draining.Load(), buildInfo: s.buildInfo}
	body := sc.render(make([]byte, 0, 8<<10))
	w.Header().Set("Content-Type", promtext.ContentType)
	w.Write(body)
}
