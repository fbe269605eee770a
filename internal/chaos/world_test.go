package chaos

// The world is one chaos run's entire universe: the live daemon (plus
// the durable store directory it restarts over), the seeded rng every
// random choice flows from, and the model the oracle checks the daemon
// against. The model is deliberately tiny — chaos oracles live or die
// by how cheap their invariants are:
//
//   - expected maps every point key ever streamed to its exact NDJSON
//     line; any later sighting of the key must match byte-for-byte.
//   - admitted counts the points accepted by 200-status responses in
//     the current daemon incarnation; together with /stats it closes
//     the conservation laws (hits+misses == admitted, misses ==
//     done+dropped).
//   - history records grids that were streamed to completion at least
//     once, so restarts and the -workers 1 epilogue can replay them.
//
// All rng draws happen on the test goroutine: concurrent actors get
// their inputs pre-drawn, so a seed replays the same action sequence
// every time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/obs/promtext"
)

// tinyCache is the -cache the chaos daemon runs under: small enough
// that routine sweeps overflow it (forcing eviction and disk re-reads)
// while still holding one overlap wave's points, which keeps the
// strict hits==overlap accounting exact.
const tinyCache = 8

// chaosWait bounds every quiesce/readiness poll in the harness.
const chaosWait = 60 * time.Second

type world struct {
	t       *testing.T
	seed    uint64
	rng     *rand.Rand
	actions int
	actionN int
	curName string

	storeDir  string
	logPath   string
	tracePath string
	d         *clitest.Daemon
	client    *http.Client

	// Cross-incarnation model.
	expected   map[string]string // point key -> exact NDJSON line (no trailing \n)
	history    []grid            // grids streamed to completion at least once
	historySet map[string]bool
	nonce      uint64 // fresh-key generator (becomes the request seed)
	cursor     uint64 // delta-sync client position, survives restarts

	// Per-incarnation model, reset by start().
	admitted   int64 // points admitted by 200 responses since this boot
	cacheLimit int   // the -cache bound this incarnation runs under
}

func newWorld(t *testing.T, seed uint64, actions int) *world {
	dir := logDir(t)
	w := &world{
		t:          t,
		seed:       seed,
		rng:        rand.New(rand.NewSource(int64(seed))),
		actions:    actions,
		storeDir:   filepath.Join(t.TempDir(), "store"),
		logPath:    filepath.Join(dir, fmt.Sprintf("%s-seed%d.log", sanitize(t.Name()), seed)),
		tracePath:  filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace.txt", sanitize(t.Name()), seed)),
		client:     &http.Client{}, // no global timeout: streams may legitimately outlive any fixed guess; contexts bound the risky reads
		expected:   map[string]string{},
		historySet: map[string]bool{},
	}
	if err := os.MkdirAll(w.storeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Truncate artifacts from an earlier run against the same logdir.
	os.Remove(w.logPath)
	os.Remove(w.tracePath)
	w.trace("chaos run: seed=%d actions=%d", seed, actions)
	w.start()
	return w
}

// sanitize turns a test name into a file-name-safe slug.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}

// start boots a daemon incarnation over the shared store directory and
// resets the per-incarnation admission model.
func (w *world) start() {
	w.t.Helper()
	d, err := clitest.StartDaemon(sweepdBin(), w.logPath, clitest.DefaultWait,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-cache", strconv.Itoa(tinyCache),
		"-store", w.storeDir,
		"-queue", "512",
		"-slow-request", "250ms",
	)
	if err != nil {
		w.failf("daemon failed to start: %v", err)
	}
	w.d = d
	w.admitted = 0
	w.cacheLimit = tinyCache
	if err := clitest.WaitHealthy(d.URL, clitest.DefaultWait); err != nil {
		w.failf("daemon never became healthy: %v", err)
	}
}

// shutdown SIGTERMs the daemon and requires the clean-drain contract:
// exit code 0 no matter what was in flight.
func (w *world) shutdown() {
	w.t.Helper()
	code, err := w.d.Shutdown()
	if err != nil {
		w.failf("SIGTERM wait: %v", err)
	}
	if code != 0 {
		w.failf("daemon exit code %d after SIGTERM, want 0 (dirty drain)", code)
	}
}

// teardown ends the run: a final clean drain if the daemon is up.
func (w *world) teardown() {
	if w.d != nil && w.d.Running() {
		w.d.Kill()
	}
}

// trace appends one line to the action trace artifact (best-effort) so
// a CI failure shows the exact action history alongside the seed.
func (w *world) trace(format string, args ...any) {
	f, err := os.OpenFile(w.tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintf(f, format+"\n", args...)
	f.Close()
}

// failf fails the run with the replay banner every chaos failure must
// carry: the seed, the action count, the exact replay command, and the
// daemon log tail.
func (w *world) failf(format string, args ...any) {
	w.t.Helper()
	msg := fmt.Sprintf(format, args...)
	w.trace("FAIL at action %d (%s): %s", w.actionN, w.curName, msg)
	w.t.Fatalf("chaos: %s\n"+
		"  seed=%d action=%d/%d (%s)\n"+
		"  replay: go test ./internal/chaos -run 'TestChaos$' -chaos.seed=%d -chaos.actions=%d\n"+
		"  if this reproduces, pin it: add {\"seed\": %d, \"actions\": %d} to internal/chaos/regression_seeds.json\n"+
		"  action trace: %s\n"+
		"  daemon log tail:\n%s",
		msg, w.seed, w.actionN, w.actions, w.curName, w.seed, w.actions, w.seed, w.actions,
		w.tracePath, clitest.LogTail(w.logPath, 4096))
}

// daemonStats is the /stats slice the oracle reads.
type daemonStats struct {
	QueueDepth     int    `json:"queue_depth"`
	RunningPoints  int    `json:"running_points"`
	InflightPoints int    `json:"inflight_points"`
	CacheSize      int    `json:"cache_size"`
	CacheHits      int64  `json:"cache_hits"`
	CacheMisses    int64  `json:"cache_misses"`
	CacheEvictions int64  `json:"cache_evictions"`
	DedupJoins     int64  `json:"dedup_joins"`
	WarmHits       int64  `json:"warm_hits"`
	DiskHits       int64  `json:"disk_hits"`
	Segments       int    `json:"segments"`
	StoreCursor    uint64 `json:"store_cursor"`
	Requests       int64  `json:"requests"`
	Rejected       int64  `json:"requests_rejected"`
	Disconnects    int64  `json:"client_disconnects"`
	PointsDone     int64  `json:"points_done"`
	PointsDropped  int64  `json:"points_dropped"`
}

// stats scrapes /stats, failing the run if the daemon won't answer.
func (w *world) stats() daemonStats {
	w.t.Helper()
	st, err := w.tryStats()
	if err != nil {
		w.failf("GET /stats: %v", err)
	}
	return st
}

func (w *world) tryStats() (daemonStats, error) {
	var st daemonStats
	resp, err := w.client.Get(w.d.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// streamRead is one fully-consumed /sweep response.
type streamRead struct {
	status int
	lines  map[string]string // key -> exact NDJSON line
	done   bool              // the {"done":true} trailer arrived
	err    error
}

// readSweep consumes a sweep response body. It carries no testing.T so
// concurrent actors can use it; errors surface in the result. first, when
// non-nil, runs once as soon as the first point line lands — the hook the
// signal actions use to know the stream is genuinely mid-flight.
func readSweep(resp *http.Response, first func()) streamRead {
	defer resp.Body.Close()
	notified := false
	notify := func() {
		if first != nil && !notified {
			notified = true
			first()
		}
	}
	defer notify() // a stream that dies before its first line still unblocks the waiter
	sr := streamRead{status: resp.StatusCode, lines: map[string]string{}}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var probe struct {
			Key   string `json:"key"`
			Error string `json:"error"`
			Done  bool   `json:"done"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			sr.err = fmt.Errorf("bad NDJSON line %q: %v", line, err)
			return sr
		}
		switch {
		case probe.Done:
			if sr.done {
				sr.err = fmt.Errorf("two done trailers in one stream")
				return sr
			}
			sr.done = true
		case probe.Error != "":
			sr.err = fmt.Errorf("error line: %s", line)
			return sr
		case probe.Key == "":
			sr.err = fmt.Errorf("point line without a key: %q", line)
			return sr
		default:
			if _, dup := sr.lines[probe.Key]; dup {
				sr.err = fmt.Errorf("key %s streamed twice", probe.Key)
				return sr
			}
			if sr.done {
				sr.err = fmt.Errorf("point line after the done trailer: %q", line)
				return sr
			}
			sr.lines[probe.Key] = line
			notify()
		}
	}
	if err := sc.Err(); err != nil && sr.err == nil {
		sr.err = err
	}
	return sr
}

// postSweep sends one sweep body (no context, fully read by caller).
func (w *world) postSweep(body string) (*http.Response, error) {
	return w.client.Post(w.d.URL+"/sweep", "application/json", strings.NewReader(body))
}

// absorb checks a completed stream against the byte-identity model and
// folds its lines in. Returns the number of point lines.
func (w *world) absorb(sr streamRead, context string) int {
	w.t.Helper()
	if sr.err != nil {
		w.failf("%s: %v", context, sr.err)
	}
	if sr.status != http.StatusOK {
		w.failf("%s: status %d, want 200", context, sr.status)
	}
	if !sr.done {
		w.failf("%s: stream ended without the done trailer (torn stream)", context)
	}
	w.learnLines(sr.lines, context)
	return len(sr.lines)
}

// learnLines is absorb's model half, shared with partial readers: every
// line either matches the model byte-for-byte or extends it.
func (w *world) learnLines(lines map[string]string, context string) {
	w.t.Helper()
	for key, line := range lines {
		if prev, ok := w.expected[key]; ok {
			if prev != line {
				w.failf("%s: byte-identity violated for point %s:\n  first: %s\n  now:   %s", context, key, prev, line)
			}
			continue
		}
		w.expected[key] = line
	}
}

// recordHistory remembers a grid whose stream completed, for replays.
func (w *world) recordHistory(g grid) {
	body := g.body()
	if w.historySet[body] {
		return
	}
	w.historySet[body] = true
	w.history = append(w.history, g)
}

// quiesce waits until the daemon's queue has fully drained and the
// admission conservation laws have settled, then returns the settled
// stats. This is the cheap half of the oracle, run after every action:
//
//	inflight == queue == 0          (nothing leaked, disconnects included)
//	hits + misses == admitted        (every admitted point classified once)
//	misses == points_done + dropped  (every miss became exactly one outcome)
func (w *world) quiesce() daemonStats {
	w.t.Helper()
	var st daemonStats
	ok := clitest.WaitUntil(chaosWait, func() bool {
		s, err := w.tryStats()
		if err != nil {
			return false
		}
		st = s
		return st.InflightPoints == 0 && st.QueueDepth == 0 && st.RunningPoints == 0 &&
			st.CacheHits+st.CacheMisses == w.admitted &&
			st.CacheMisses == st.PointsDone+st.PointsDropped
	})
	if !ok {
		w.failf("daemon never quiesced into a conserving state: stats=%+v admitted=%d\n"+
			"  want inflight=0 queue=0, hits+misses==admitted, misses==done+dropped", st, w.admitted)
	}
	if st.CacheSize > w.cacheLimit {
		w.failf("cache_size %d exceeds -cache %d: LRU bound broken", st.CacheSize, w.cacheLimit)
	}
	return st
}

// metricsAgree scrapes /metrics and requires each counter family to
// equal its /stats twin. Only called at quiesce, so the two snapshots
// cannot legitimately differ.
func (w *world) metricsAgree(st daemonStats) {
	w.t.Helper()
	resp, err := w.client.Get(w.d.URL + "/metrics")
	if err != nil {
		w.failf("GET /metrics: %v", err)
	}
	raw := make([]byte, 0, 1<<16)
	buf := bufio.NewScanner(resp.Body)
	buf.Buffer(make([]byte, 1<<20), 1<<20)
	for buf.Scan() {
		raw = append(raw, buf.Bytes()...)
		raw = append(raw, '\n')
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.failf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := promtext.Lint(raw); err != nil {
		w.failf("/metrics exposition malformed: %v", err)
	}
	exposition := string(raw)
	for _, pair := range []struct {
		sample string
		want   int64
	}{
		{"sweep_requests_total", st.Requests},
		{"sweep_requests_rejected_total", st.Rejected},
		{"sweep_point_cache_hits_total", st.CacheHits},
		{"sweep_point_cache_misses_total", st.CacheMisses},
		{"sweep_points_done_total", st.PointsDone},
		{"sweep_points_dropped_total", st.PointsDropped},
		{"sweep_client_disconnects_total", st.Disconnects},
		{"sweep_dedup_joins_total", st.DedupJoins},
		{"sweep_queue_depth", int64(st.QueueDepth)},
		{"sweep_inflight_points", int64(st.InflightPoints)},
	} {
		got, ok := sampleValue(exposition, pair.sample)
		if !ok {
			w.failf("/metrics is missing sample %s", pair.sample)
		}
		if got != float64(pair.want) {
			w.failf("surface disagreement: /metrics %s = %v but /stats says %d", pair.sample, got, pair.want)
		}
	}
}

// sampleValue extracts one sample's value from a text exposition; the
// name must match the whole sample name, labels included.
func sampleValue(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[:i] != name {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
