package main

// The load generator. Every workload is a closed loop: each client sends
// its next op only when the previous one has completed, the way a
// researcher's script or a sweep client that waits for its results
// behaves, so a slower system receives less load. The serving workloads
// run two clients, matching the two cores the numbers were taken on; the
// study runs one, since each pipesweep run uses both cores itself.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs/promtext"
)

const (
	// clients is how many closed-loop clients drive sweepd.
	clients = 2

	// minSamples is the fewest timed requests a phase collects before it
	// may end: the p90 the benchmark reports needs ten beyond it.
	minSamples = 100

	// phaseWarmup is the untimed start of every phase. Throughput in a
	// phase's first second or two runs well below the rest while the
	// daemon's heap, the connections and the caches settle.
	phaseWarmup = 2 * time.Second

	// maxPhase caps a phase that cannot reach minSamples, so even a
	// traced run, which measures two phases, ends within three minutes.
	maxPhase = 60 * time.Second

	// windows is how many equal windows points_per_s is measured over;
	// the median window's rate is reported, so a stall in one window of
	// a shared host does not move it.
	windows = 5

	// watchEvery is how often a phase's watcher samples the daemon.
	watchEvery = 100 * time.Millisecond

	opTimeout = 60 * time.Second
)

// opResult is one completed op of the load generator.
type opResult struct {
	client, k int
	kind      string // "sweep", "write", "stats", "metrics" or "study"
	id        string // X-Request-Id, set in traced phases
	body      []byte // the /sweep body, verified after the phase
	timed     bool   // sent after the phase's warm-up

	start  time.Time
	ttfl   time.Duration // first result line (study: first stdout byte)
	ttt    time.Duration // the {"done":true} trailer (study: process exit)
	points int           // result lines (study: simulations)
	bytes  int
	digest [32]byte      // SHA-256 of the keys in stream order (study: of stdout)
	rssKB  int64         // study runs: the child's peak resident set
	cpu    time.Duration // study runs: the child's user + system CPU time
	err    error
}

// sample reports whether the op is one of the workload's requests, as
// opposed to a scrape, which is timed separately.
func (o opResult) sample() bool { return o.kind == "sweep" || o.kind == "write" || o.kind == "study" }

// loadPhase is one closed-loop phase: a warm-up, then the timed ops.
type loadPhase struct {
	ops     []opResult    // every op, the warm-up's included
	timedAt time.Time     // the end of the warm-up
	elapsed time.Duration // the timed part
	total   time.Duration // warm-up and timed part
}

// closedLoop runs n clients through the run's warm-up and then until
// the timed part has lasted r.seconds and at least r.minSamples timed
// requests completed (or the run is cancelled, or maxPhase passes). do
// performs client ci's k-th op. watch, when not nil, is called every
// watchEvery through the timed part. The clients and the watcher are the
// items of one exec.Map, so the load generator starts no goroutine of its
// own.
func (r *runner) closedLoop(n int, do func(ci, k int) opResult, watch func()) loadPhase {
	start := time.Now()
	timedAt := start.Add(r.warmup)
	var samples, finished atomic.Int64
	items := n
	if watch != nil {
		items++
	}
	per, _ := exec.Map(exec.Pool{Workers: items}, make([]struct{}, items), func(ci int, _ struct{}) []opResult {
		if ci == n {
			for {
				if !time.Now().Before(timedAt) {
					watch()
				}
				if finished.Load() == int64(n) {
					return nil
				}
				time.Sleep(watchEvery)
			}
		}
		defer finished.Add(1)
		var out []opResult
		for k := 0; r.ctx.Err() == nil; k++ {
			el := time.Since(timedAt)
			if el >= maxPhase || (el >= r.seconds && samples.Load() >= int64(r.minSamples)) {
				break
			}
			o := do(ci, k)
			o.client, o.k = ci, k
			o.timed = !o.start.Before(timedAt)
			if o.timed && o.sample() {
				samples.Add(1)
			}
			out = append(out, o)
		}
		return out
	})
	ph := loadPhase{timedAt: timedAt, elapsed: time.Since(timedAt), total: time.Since(start)}
	for _, p := range per {
		ph.ops = append(ph.ops, p...)
	}
	return ph
}

// httpClient is one load-generator client on one keep-alive connection.
// It is used by one goroutine at a time.
type httpClient struct {
	base string
	hc   *http.Client
	br   *bufio.Reader

	// seen holds the first line served for every key, so a key served
	// with different bytes later in the run is caught.
	seen map[string][]byte
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{
		base: base,
		hc:   &http.Client{Transport: tr, Timeout: opTimeout},
		br:   bufio.NewReaderSize(nil, 64<<10),
		seen: map[string][]byte{},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

var (
	resultPrefix  = []byte(`{"key":"`)
	trailerPrefix = []byte(`{"done":true,"points":`)
)

const keyLen = 64 // hex SHA-256

// sweep POSTs one body and reads its NDJSON stream, checking the serving
// oracles as lines arrive: status 200, no error line, and a trailer whose
// points equal the lines received. id, when set, is sent as X-Request-Id.
func (c *httpClient) sweep(body []byte, id string) opResult {
	o := opResult{kind: "sweep", id: id, body: body}
	req, err := http.NewRequest(http.MethodPost, c.base+"/sweep", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	o.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		o.err = fmt.Errorf("status %d", resp.StatusCode)
		return o
	}
	c.br.Reset(resp.Body)
	h := sha256.New()
	trailer := -1
	for {
		line, rerr := c.br.ReadSlice('\n')
		if len(line) > 0 && o.err == nil {
			o.bytes += len(line)
			switch {
			case trailer >= 0:
				o.err = fmt.Errorf("data after the trailer: %.80q", line)
			case bytes.HasPrefix(line, resultPrefix) && len(line) > len(resultPrefix)+keyLen &&
				line[len(resultPrefix)+keyLen] == '"':
				if o.points == 0 {
					o.ttfl = time.Since(o.start)
				}
				o.points++
				key := line[len(resultPrefix) : len(resultPrefix)+keyLen]
				h.Write(key)
				if !c.remember(key, line) {
					o.err = fmt.Errorf("key %s served with different bytes", key)
				}
			case bytes.HasPrefix(line, trailerPrefix):
				o.ttt = time.Since(o.start)
				n, perr := strconv.Atoi(string(bytes.TrimSuffix(line[len(trailerPrefix):], []byte("}\n"))))
				if perr != nil {
					o.err = fmt.Errorf("bad trailer %q", line)
				}
				trailer = n
			default:
				o.err = fmt.Errorf("error line %.200q", line)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			o.err = fmt.Errorf("reading stream: %w", rerr)
			break
		}
	}
	h.Sum(o.digest[:0])
	switch {
	case o.err != nil:
	case trailer < 0:
		o.err = fmt.Errorf("stream ended without a trailer after %d lines", o.points)
	case trailer != o.points:
		o.err = fmt.Errorf("trailer says %d points, received %d", trailer, o.points)
	}
	return o
}

// remember records the first line served for key and reports whether
// line matches it.
func (c *httpClient) remember(key, line []byte) bool {
	if prev, ok := c.seen[string(key)]; ok {
		return bytes.Equal(prev, line)
	}
	c.seen[string(key)] = append([]byte(nil), line...)
	return true
}

// scrape GETs /stats or /metrics and checks the body parses: JSON for
// /stats, valid Prometheus text for /metrics.
func (c *httpClient) scrape(path, id string) opResult {
	o := opResult{kind: path[1:], id: id}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		o.err = err
		return o
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	o.start = time.Now()
	b, status, err := c.get(req)
	o.ttt = time.Since(o.start)
	o.bytes = len(b)
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.err = fmt.Errorf("%s: status %d", path, status)
	case path == "/stats" && !json.Valid(b):
		o.err = fmt.Errorf("/stats body is not JSON")
	case path == "/metrics":
		if lerr := promtext.Lint(b); lerr != nil {
			o.err = fmt.Errorf("/metrics: %v", lerr)
		}
	}
	return o
}

func (c *httpClient) get(req *http.Request) ([]byte, int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// fetch GETs path outside any measured phase.
func (c *httpClient) fetch(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	b, status, err := c.get(req)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return b, err
}
