package serve

// Request-scoped tracing. Every request gets an ID — an inbound
// X-Request-Id is honored (after sanitizing) so a caller or upstream
// proxy can correlate its own logs with the daemon's, otherwise one is
// generated — and the ID travels with the request: echoed in the
// response headers, attached to the context for handlers, carried into
// the scheduler as each admitted job's origin, and emitted on every
// access/slow log line. Tracing is observation-only: IDs never reach a
// sweep body or a cache key.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"
)

// traceKey is the context key for the request's *reqTrace.
type traceKey struct{}

// reqTrace is one request's tracing state. The middleware creates it;
// the handler running synchronously underneath fills the sweep-specific
// fields; the middleware reads them back for the access log after the
// handler returns.
type reqTrace struct {
	id string

	points int    // points in the admitted sweep
	hits   int    // points served from the store or joined in flight
	joins  int    // the subset of hits that were singleflight joins
	reason string // rejection reason, "" when the request was served
}

// traceFrom returns the request's trace, or nil outside the middleware
// (direct handler tests).
func traceFrom(ctx context.Context) *reqTrace {
	tr, _ := ctx.Value(traceKey{}).(*reqTrace)
	return tr
}

// requestID returns the trace's ID, "" outside the middleware.
func (tr *reqTrace) requestID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// newRequestID generates a 16-hex-char random ID. Random, not
// sequential: IDs must stay unique across daemon restarts and across
// the fabric's future N nodes without coordination.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; a fixed ID keeps
		// the request traceable rather than failing it.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts an inbound X-Request-Id only if it is short
// and shell/log-safe; anything else is discarded so a hostile header
// cannot inject log fields or unbounded bytes.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.', r == ':':
		default:
			return ""
		}
	}
	return id
}

// traceWriter wraps the ResponseWriter to record status and body bytes
// for the access log without touching the body itself. Flush forwards
// so NDJSON streaming keeps working through the wrapper.
type traceWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *traceWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *traceWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *traceWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withTrace is the access-log middleware around the whole mux: assign
// the request ID, echo it, time the request, observe the latency
// histogram, and emit one structured log line per request — Info for
// sweeps (the daemon's workload), Debug for the observation endpoints,
// plus a threshold-gated Warn for slow requests.
func (s *Server) withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = newRequestID()
		}
		tr := &reqTrace{id: id}
		w.Header().Set("X-Request-Id", id)
		tw := &traceWriter{ResponseWriter: w, status: http.StatusOK}

		s.rec.Add("http_requests_inflight", 1)
		next.ServeHTTP(tw, r.WithContext(context.WithValue(r.Context(), traceKey{}, tr)))
		s.rec.Add("http_requests_inflight", -1)

		dur := time.Since(start)
		sweep := r.URL.Path == "/sweep"
		if sweep {
			s.rec.Observe("request_latency", dur)
			s.rec.Add("stream_bytes", tw.bytes)
		}

		attrs := []any{
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", tw.status,
			"bytes", tw.bytes,
			"duration", dur,
		}
		if sweep {
			attrs = append(attrs, "points", tr.points, "cache_hits", tr.hits, "dedup_joins", tr.joins)
			if tr.reason != "" {
				attrs = append(attrs, "reject_reason", tr.reason)
			}
			s.cfg.Log.Info("request", attrs...)
		} else {
			s.cfg.Log.Debug("request", attrs...)
		}
		if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest {
			s.rec.Add("slow_requests", 1)
			s.cfg.Log.Warn("slow request", append(attrs, "threshold", s.cfg.SlowRequest)...)
		}
	})
}
