// Package serve is the sweep-serving daemon behind cmd/sweepd: a
// long-running HTTP front end over the simulation library. Clients POST
// sweep grids to /sweep; the server decomposes them into per-point
// tasks, serves repeats from a content-addressed result cache keyed by
// the canonical point hash (core.PointOptions.Key), deduplicates
// concurrent identical points singleflight-style, and runs the rest
// on long-lived executor workers, each running the queued points that
// share a benchmark trace on its one reusable pipeline.Scratch.
// Results stream back as NDJSON as points complete.
//
// Operational contract:
//
//   - Admission is bounded: a request whose new points would overflow
//     the queue-depth limit is rejected with 429 and a Retry-After
//     header, before anything is enqueued — and grid ranges are bounds-
//     checked before expansion, so no request body can make the server
//     materialize (or loop over) more points than the per-request limit.
//   - The result cache is a pluggable ResultStore (internal/store) and
//     bounded either way: cache keys span an unbounded input space (any
//     seed, any instruction count), so least-recently-used lines are
//     evicted past CacheLimit; /stats exposes cache_bytes and
//     cache_evictions so operators can watch the economy. A durable
//     store adds a write-through segment log, warm-start on boot (every
//     previously simulated point is served from disk, byte-identically,
//     with zero re-simulation) and cursor-based delta sync over
//     GET /results?since=<cursor>.
//   - A client that disconnects mid-stream releases its claim on every
//     unconsumed point; queued points nobody else wants are dropped
//     immediately rather than simulated for nobody. A point a worker
//     has already claimed runs and fills the cache.
//   - Shutdown is graceful: BeginDrain stops admitting, in-flight
//     streams run to completion, Close waits for the dispatcher.
//   - /healthz and /stats expose the cache hit ratio, queue depth,
//     in-flight point count and the run's telemetry snapshot (including
//     the simulator's wakeup counters) via internal/obs.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config sizes one Server. The zero value is a sensible daemon: all-CPU
// simulation workers, a 4096-point queue, 1024 points per request.
type Config struct {
	// Workers is the number of long-lived simulation workers, each
	// pulling the next batch the moment it finishes the last: 0 =
	// GOMAXPROCS, 1 = serial (exec.Pool semantics).
	Workers int

	// QueueLimit bounds admitted-but-unstarted points; 0 means 4096.
	// Admission past the limit fails with 429 + Retry-After.
	QueueLimit int

	// MaxPointsPerRequest bounds one request's expansion; 0 means 1024.
	MaxPointsPerRequest int

	// MaxInstructions bounds the per-trace instruction count a request
	// may ask for; 0 means 1_000_000.
	MaxInstructions int

	// CacheLimit bounds the result cache's entry count; least-recently-
	// used lines are evicted past it (counted as cache_evictions in
	// /stats). 0 means 16384 entries; negative means unbounded — cache
	// keys span an unbounded input space, so only use that when the
	// client population is known to be closed.
	CacheLimit int

	// CodeVersion is mixed into every cache key so results are content-
	// addressed across simulator versions; "" resolves the build's VCS
	// revision (falling back to "dev").
	CodeVersion string

	// Store overrides the result store. nil means a process-lifetime
	// bounded LRU sized by CacheLimit; a *store.Durable adds warm-start
	// persistence and enables the GET /results delta-sync endpoint.
	// A caller-supplied store must use the same CodeVersion and should
	// share Rec so its counters land in the run manifest.
	Store store.ResultStore

	// RetryAfter is the Retry-After value, in seconds, sent with 429
	// (queue full) and 503 (draining/stopped) responses; 0 means 1.
	RetryAfter int

	// Rec receives the server's telemetry; nil means a private recorder.
	Rec *obs.Recorder

	// Log receives request-level events; nil means slog.Default.
	Log *slog.Logger

	// DisableMetrics turns off the /metrics endpoint, which then serves
	// 404. It is a deployment switch only: the recorder counts the same
	// things either way, so /stats is unchanged, and request IDs and
	// access logs stay on — they are part of the serving contract, not
	// the scrape surface.
	DisableMetrics bool

	// SlowRequest is the latency threshold past which a completed
	// request is logged at Warn and counted in
	// sweep_slow_requests_total; 0 disables the slow log.
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueLimit == 0 {
		c.QueueLimit = 4096
	}
	if c.MaxPointsPerRequest == 0 {
		c.MaxPointsPerRequest = 1024
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 1_000_000
	}
	if c.CacheLimit == 0 {
		c.CacheLimit = 16384
	}
	if c.CodeVersion == "" {
		c.CodeVersion = buildVersion()
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 1
	}
	if c.Rec == nil {
		c.Rec = obs.New(nil)
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.Store == nil {
		c.Store = store.NewMemory(c.CacheLimit, c.Rec)
	}
	return c
}

// buildVersion resolves the binary's VCS revision for cache keying.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "dev"
}

// DefaultCodeVersion is the code version a zero-valued Config resolves
// to. A durable store opened alongside the server must be keyed with
// the same string, or every replayed record would be version-skipped.
func DefaultCodeVersion() string { return buildVersion() }

// DeltaSource is the optional store capability behind GET /results:
// cursor-ordered replication of every appended record. *store.Durable
// implements it; the in-memory store does not (501).
type DeltaSource interface {
	Since(since uint64, fn func(store.Delta) error) error
}

// Server is the daemon: an http.Handler plus the scheduler behind it.
type Server struct {
	cfg      Config
	rec      *obs.Recorder
	metrics  *serverMetrics // nil when /metrics is disabled
	sched    *scheduler
	delta    DeltaSource // nil when the result store is memory-only
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the tracing middleware
	start    time.Time
	draining atomic.Bool
}

// New builds a Server and starts its dispatcher. Callers must Close it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		rec:   cfg.Rec,
		mux:   http.NewServeMux(),
		start: time.Now(), // uptime gauge only; /stats is off the deterministic result path
	}
	s.metrics = newServerMetrics(!cfg.DisableMetrics, s)
	s.sched = newScheduler(cfg.Workers, cfg.QueueLimit, cfg.Store, cfg.CodeVersion, cfg.Rec, cfg.Log)
	s.delta, _ = cfg.Store.(DeltaSource)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/results", s.handleResults)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.handler = s.withTrace(s.mux)
	return s
}

// ServeHTTP makes the Server mountable directly into http.Server and
// httptest.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// BeginDrain stops admitting new sweeps (503) while letting accepted
// streams finish; /healthz starts reporting "draining". Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Close drains the scheduler (every already-admitted point completes or
// is dropped) and stops the dispatcher. Call after the HTTP listener has
// stopped accepting work — http.Server.Shutdown ordering in cmd/sweepd.
func (s *Server) Close() {
	s.BeginDrain()
	s.sched.close()
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// rejectReasons are every reason reject is called with, in the order
// sweep_rejects_total renders them.
var rejectReasons = []string{"bad_request", "draining", "queue_full", "stopped"}

// rejectCounter is the recorder counter of one reject reason.
func rejectCounter(reason string) string { return "rejected_" + reason }

// reject refuses one /sweep request: it is counted once, under its
// reason (/stats requests_rejected is the sum over rejectReasons), and
// the reason lands in the access log; retryable statuses carry
// Retry-After, and the body is the usual JSON error.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, status int, reason, format string, args ...any) {
	if tr := traceFrom(r.Context()); tr != nil {
		tr.reason = reason
	}
	s.rec.Add(rejectCounter(reason), 1)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	}
	errorJSON(w, status, format, args...)
}

// handleSweep is POST /sweep: expand, admit, stream.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		errorJSON(w, http.StatusMethodNotAllowed, "POST a sweep request body to /sweep")
		return
	}
	tr := traceFrom(r.Context())
	if s.draining.Load() {
		s.reject(w, r, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reject(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	pts, keys, err := req.Points(s.cfg.CodeVersion, Limits{
		MaxPoints:       s.cfg.MaxPointsPerRequest,
		MaxInstructions: s.cfg.MaxInstructions,
	})
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	tickets, adm, err := s.sched.admit(pts, keys, tr.requestID())
	if errors.Is(err, ErrQueueFull) {
		s.reject(w, r, http.StatusTooManyRequests, "queue_full", "%v", err)
		return
	}
	if err != nil {
		// ErrStopped: Close won the race against this request's draining
		// check; the dispatcher is gone, so admit refused the points.
		s.reject(w, r, http.StatusServiceUnavailable, "stopped", "%v", err)
		return
	}
	s.rec.Add("requests", 1)
	if tr != nil {
		tr.points, tr.hits, tr.joins = len(pts), adm.hits, adm.joins
	}
	s.cfg.Log.Debug("sweep admitted",
		"request_id", tr.requestID(),
		"points", len(pts),
		"cache_hits", adm.hits,
		"misses", adm.misses,
		"dedup_joins", adm.joins)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	streamStart := time.Now()
	defer func() {
		// Observed on every exit — completion and mid-stream disconnects
		// both shape the stream-duration distribution.
		s.rec.Observe("stream_duration", time.Since(streamStart))
	}()
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()

	for i, t := range tickets {
		line := t.line
		if t.job != nil {
			select {
			case <-t.job.done:
				if t.job.err != nil {
					// Validated points only fail on should-never-happen
					// internal errors; surface them without caching.
					s.streamError(w, flusher, t.job.key, t.job.err)
					continue
				}
				line = t.job.line
			case <-ctx.Done():
				s.disconnect(tickets[i:])
				return
			}
		}
		// line is newline-terminated and shared across streams; it must be
		// written as-is, never appended to.
		if _, err := w.Write(line); err != nil {
			s.disconnect(tickets[i+1:])
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Trailer: lets clients distinguish a complete stream from a dropped
	// connection. Deliberately free of timing or cache provenance so the
	// whole response body is identical for identical requests.
	fmt.Fprintf(w, "{\"done\":true,\"points\":%d}\n", len(tickets))
}

// streamError emits a non-cached error line for one point.
func (s *Server) streamError(w http.ResponseWriter, flusher http.Flusher, key string, err error) {
	line, _ := json.Marshal(map[string]string{"key": key, "error": err.Error()})
	w.Write(append(line, '\n'))
	if flusher != nil {
		flusher.Flush()
	}
}

// disconnect releases every unconsumed ticket of a request whose client
// went away.
func (s *Server) disconnect(remaining []ticket) {
	s.sched.release(remaining)
	s.rec.Add("client_disconnects", 1)
	s.cfg.Log.Debug("client disconnected", "released", len(remaining))
}

// Health is the /healthz body.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	QueueDepth int    `json:"queue_depth"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, _ := s.sched.gauges()
	h := Health{Status: "ok", QueueDepth: queued}
	status := http.StatusOK
	if s.draining.Load() {
		// 503 + Retry-After: load balancers stop routing here while the
		// drain finishes; the body says why.
		h.Status = "draining"
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(h)
}

// Stats is the /stats body: live queue gauges, the point cache's hit
// economy, and the full telemetry snapshot (which carries the
// simulator's wakeup_wakes/wakeup_scanned counters and per-task
// timings).
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	QueueDepth     int `json:"queue_depth"`
	RunningPoints  int `json:"running_points"`
	InflightPoints int `json:"inflight_points"` // queued + running

	CacheSize      int     `json:"cache_size"`
	CacheBytes     int64   `json:"cache_bytes"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	CacheEvictions int64   `json:"cache_evictions"`
	DedupJoins     int64   `json:"dedup_joins"`

	// The durable-store economy: hits served warm from the replayed
	// memory layer, hits re-read from a segment, live segment files and
	// their bytes, coordinator compactions, and the delta-sync cursor
	// high-water mark. All zero in memory-only mode.
	WarmHits    int64  `json:"warm_hits"`
	DiskHits    int64  `json:"disk_hits"`
	Segments    int    `json:"segments"`
	StoreBytes  int64  `json:"store_bytes"`
	Compactions int64  `json:"compactions"`
	StoreCursor uint64 `json:"store_cursor"`

	// Degraded-store operations (see store.Stats): nonzero means the
	// daemon is serving but the segment log needs an operator.
	DiskEntries       int   `json:"disk_entries"`
	StoreAppendErrors int64 `json:"store_append_errors"`
	StoreReadErrors   int64 `json:"store_read_errors"`

	// The process-wide trace cache (see core.TraceCacheStats): traces
	// generated so far and the bytes their instruction columns hold.
	TraceCacheTraces int64 `json:"trace_cache_traces"`
	TraceCacheBytes  int64 `json:"trace_cache_bytes"`

	// ScratchBytes is what the workers' simulation Scratches retain
	// between points (see pipeline.Scratch.RetainedBytes), summed as of
	// each worker's last finished batch.
	ScratchBytes int64 `json:"scratch_bytes"`

	Requests      int64 `json:"requests"`
	Rejected      int64 `json:"requests_rejected"`
	Disconnects   int64 `json:"client_disconnects"`
	PointsDone    int64 `json:"points_done"`
	PointsDropped int64 `json:"points_dropped"`

	Telemetry obs.Snapshot `json:"telemetry"`
}

// StatsSnapshot is the /stats body, and the value each /metrics scrape
// renders. It reads every source exactly once: the scheduler's gauges
// and scratch total, one Store.Stats(), the trace cache, and one
// recorder Snapshot, whose counters fill both the top-level fields and
// Telemetry. Exported so tests and embedding binaries can read it
// without HTTP.
func (s *Server) StatsSnapshot() Stats {
	queued, running := s.sched.gauges()
	ss := s.cfg.Store.Stats()
	traces, traceBytes := core.TraceCacheStats()
	tel := s.rec.Snapshot()
	c := tel.Counters
	st := Stats{
		UptimeSeconds:     time.Since(s.start).Seconds(), // observation-only: never feeds a result body
		QueueDepth:        queued,
		RunningPoints:     running,
		InflightPoints:    queued + running,
		CacheSize:         ss.MemEntries,
		CacheBytes:        ss.MemBytes,
		CacheHits:         c["point_cache_hits"],
		CacheMisses:       c["point_cache_misses"],
		CacheEvictions:    ss.Evictions,
		WarmHits:          ss.WarmHits,
		DiskHits:          ss.DiskHits,
		Segments:          ss.Segments,
		StoreBytes:        ss.StoreBytes,
		Compactions:       ss.Compactions,
		StoreCursor:       ss.Cursor,
		DiskEntries:       ss.DiskEntries,
		StoreAppendErrors: ss.AppendErrors,
		StoreReadErrors:   ss.ReadErrors,
		TraceCacheTraces:  traces,
		TraceCacheBytes:   traceBytes,
		ScratchBytes:      s.sched.scratchBytes.Load(),
		DedupJoins:        c["dedup_joins"],
		Requests:          c["requests"],
		Disconnects:       c["client_disconnects"],
		PointsDone:        c["points_done"],
		PointsDropped:     c["points_dropped"],
		Telemetry:         tel,
	}
	for _, reason := range rejectReasons {
		st.Rejected += c[rejectCounter(reason)]
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRatio = float64(st.CacheHits) / float64(total)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.StatsSnapshot())
}

// deltaLine is one NDJSON line of a GET /results response: the record's
// delta-sync cursor plus the stored result line verbatim (it is already
// compact JSON, so embedding it as a raw message preserves its bytes).
type deltaLine struct {
	Cursor uint64          `json:"cursor"`
	Result json.RawMessage `json:"result"`
}

// handleResults is GET /results?since=<cursor>: cursor-ordered delta
// sync over the durable store, the way an event-log pull works — a peer
// node or CLI client streams every record appended after its cursor and
// resumes next time from the trailer's cursor. A cursor at or past the
// end yields an empty stream (just the trailer), not an error. Memory-
// only daemons answer 501: there is no log to sync from.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		errorJSON(w, http.StatusMethodNotAllowed, "GET /results?since=<cursor>")
		return
	}
	if s.delta == nil {
		errorJSON(w, http.StatusNotImplemented, "delta sync requires a durable result store (run sweepd with -store)")
		return
	}
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "bad since cursor %q: %v", raw, err)
			return
		}
		since = v
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last, records := since, 0
	err := s.delta.Since(since, func(d store.Delta) error {
		if err := enc.Encode(deltaLine{Cursor: d.Cursor, Result: json.RawMessage(bytes.TrimSuffix(d.Line, []byte("\n")))}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		last, records = d.Cursor, records+1
		return nil
	})
	if err != nil {
		// Mid-stream failure (client gone or a log read error): the
		// missing trailer tells the client the pull was incomplete.
		s.cfg.Log.Debug("results stream aborted", "err", err)
		return
	}
	s.rec.Add("delta_pulls", 1)
	// The trailer's cursor is the resume point: the highest cursor this
	// response actually carried (or the caller's own cursor when the
	// stream was empty).
	fmt.Fprintf(w, "{\"done\":true,\"cursor\":%d,\"records\":%d}\n", last, records)
}
