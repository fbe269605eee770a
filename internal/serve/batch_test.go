package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// postSweepBody sends one sweep request and returns the raw response
// body: the byte-identity oracle reads the stream verbatim, newlines,
// field order and trailer included.
func postSweepBody(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return raw
}

// soloLine is the batching oracle for one point: the NDJSON line the
// point would carry had it been simulated alone, as a one-point
// core.SimulateEach call on a fresh Scratch.
func soloLine(t *testing.T, key string, opt core.PointOptions) string {
	t.Helper()
	var res core.BenchPoint
	if err := core.SimulateEach([]core.PointOptions{opt}, pipeline.NewScratch(), nil, func(_ int, p core.BenchPoint) { res = p }); err != nil {
		t.Fatalf("solo simulation of %s: %v", key, err)
	}
	line, err := json.Marshal(newPointResult(key, opt, res))
	if err != nil {
		t.Fatal(err)
	}
	return string(line) + "\n"
}

// TestBatchedSweepBytesIdentical is the serving layer's batch oracle:
// a multi-depth, multi-benchmark sweep, which the workers run as one
// batch per benchmark trace, must stream exactly the bytes of each
// point simulated alone (soloLine), in request order, and keep the
// cache economy of one simulation per point. The grid shape (5 depths x
// 2 benchmarks) is exactly the case batching accelerates, so any
// accounting that leaked into the wire format would show up here.
func TestBatchedSweepBytesIdentical(t *testing.T) {
	const req = `{"useful":[2,4,6,8,16],"benchmarks":["gcc","swim"],"instructions":4000}`

	srv, ts := newTestServer(t, Config{Workers: 2})
	var sr SweepRequest
	if err := json.Unmarshal([]byte(req), &sr); err != nil {
		t.Fatal(err)
	}
	pts, keys, err := sr.Points(srv.cfg.CodeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, pt := range pts {
		want.WriteString(soloLine(t, keys[i], pt))
	}
	fmt.Fprintf(&want, "{\"done\":true,\"points\":%d}\n", len(pts))

	body := postSweepBody(t, ts.URL, req)
	if string(body) != want.String() {
		t.Fatalf("batched sweep body differs from per-point simulation:\nbatched: %s\nsolo:    %s", body, want.String())
	}

	// A repeat of the same request must be a pure cache replay: same
	// bytes again, every point simulated exactly once, the second pass
	// all hits.
	if again := postSweepBody(t, ts.URL, req); !bytes.Equal(again, body) {
		t.Fatal("cached replay differs from the first stream")
	}
	st := getStats(t, ts.URL)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"cache_misses", st.CacheMisses, 10}, // 5 depths x 2 benchmarks, simulated once
		{"points_done", st.PointsDone, 10},
		{"cache_hits", st.CacheHits, 10}, // the full repeat request
		{"dedup_joins", st.DedupJoins, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestGroupedBatchHandlesMixedTraces drives the grouped dispatch with
// points that must NOT share a group — different instruction counts and
// different seeds over one benchmark — plus a depth pair that must. It
// guards the batching key: a wrong key either fails SimulateEach
// (mixed traces in one batch) or silently merges distinct traces.
func TestGroupedBatchHandlesMixedTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, req := range []string{
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":4000}`,
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":6000}`,
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":4000,"seed":7}`,
	} {
		resp := postSweep(t, ts.URL, req)
		lines, done := readStream(t, resp)
		if !done || len(lines) != 2 {
			t.Fatalf("request %s: got %d lines (done=%v), want 2", req, len(lines), done)
		}
	}
}

// TestColdSweepPrewarmsOncePerTrace pins the prewarm accounting: at one
// worker, a cold 5-depth sweep over gcc and swim is admitted under one
// lock, so each trace is one claim on the worker's Scratch and the
// memory template is prewarmed exactly twice, once per trace. /stats
// and /metrics must both say so, and a repeat of the sweep — all hits —
// adds nothing.
func TestColdSweepPrewarmsOncePerTrace(t *testing.T) {
	const req = `{"useful":[2,4,6,8,16],"benchmarks":["gcc","swim"],"instructions":4000}`
	_, ts := newTestServer(t, Config{Workers: 1})
	for pass := 0; pass < 2; pass++ {
		postSweepBody(t, ts.URL, req)
		if got := getStats(t, ts.URL).Telemetry.Counters["prewarms"]; got != 2 {
			t.Errorf("pass %d: /stats prewarms = %d, want 2 (one per trace)", pass, got)
		}
		if got := metricValue(t, scrapeMetrics(t, ts.URL), "sweep_prewarms_total"); got != 2 {
			t.Errorf("pass %d: sweep_prewarms_total = %v, want 2", pass, got)
		}
	}
}
