package clitest

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/obs/promtext"
)

// startSweepd launches the daemon on an ephemeral port and returns its
// base URL. The readiness line on stderr carries the resolved address.
func startSweepd(t *testing.T, extra ...string) (*exec.Cmd, string) {
	cmd, url, _ := startSweepdDebug(t, extra...)
	return cmd, url
}

// startSweepdDebug is startSweepd plus the resolved -debug-addr base URL
// (empty unless the flags ask for a debug listener). Startup is the
// shared harness contract: stderr appends to a per-test log file and
// readiness is deadline-bounded polling of that file, so a wedged or
// crashed daemon fails the test with its log tail instead of hanging
// the suite.
func startSweepdDebug(t *testing.T, extra ...string) (*exec.Cmd, string, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, extra...)
	d, err := StartDaemon(bin("sweepd"), filepath.Join(t.TempDir(), "sweepd.log"), DefaultWait, args...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.Running() {
			d.Kill()
		}
	})
	return d.Cmd, d.URL, d.DebugURL
}

func TestSweepdEndToEnd(t *testing.T) {
	cmd, url := startSweepd(t)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	// One small sweep, twice: the second run must be served from cache.
	body := `{"useful":[6,8],"benchmarks":["gcc"],"instructions":3000}`
	for round := 0; round < 2; round++ {
		resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		var points, done int
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var probe struct {
				Key  string  `json:"key"`
				IPC  float64 `json:"ipc"`
				Done bool    `json:"done"`
			}
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("round %d: bad line %q: %v", round, sc.Text(), err)
			}
			if probe.Done {
				done++
				continue
			}
			if probe.Key == "" || probe.IPC <= 0 {
				t.Fatalf("round %d: implausible point line %q", round, sc.Text())
			}
			points++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if points != 2 || done != 1 {
			t.Fatalf("round %d: %d points, %d done lines; want 2, 1", round, points, done)
		}
	}

	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		PointsDone  int64 `json:"points_done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.CacheMisses != 2 || stats.CacheHits != 2 || stats.PointsDone != 2 {
		t.Fatalf("stats after repeat = %+v, want 2 misses, 2 hits, 2 points done", stats)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sweepd did not exit cleanly on SIGTERM: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("sweepd exit = %d, want 0", code)
	}
}

// sampleValue extracts one sample's value from a text exposition. The
// name must match the whole sample name, labels included.
func sampleValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
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
			t.Fatalf("sample %s has unparsable value %q", name, line[i+1:])
		}
		return v
	}
	t.Fatalf("sample %s not found in exposition", name)
	return 0
}

// TestSweepdMetricsEndToEnd exercises the whole observability surface
// through the real binary: a sweep with a caller-supplied request ID,
// a /metrics scrape that must be well-formed and agree with /stats,
// and a pprof fetch from the private -debug-addr listener.
func TestSweepdMetricsEndToEnd(t *testing.T) {
	cmd, url, debugURL := startSweepdDebug(t, "-debug-addr", "127.0.0.1:0")
	if debugURL == "" {
		t.Fatal("-debug-addr was set but no debug readiness line appeared")
	}

	req, err := http.NewRequest("POST", url+"/sweep",
		strings.NewReader(`{"useful":[6,8],"benchmarks":["gcc"],"instructions":3000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "clitest-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "clitest-e2e-1" {
		t.Errorf("X-Request-Id echoed as %q, want the inbound value", got)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests    int64 `json:"requests"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		PointsDone  int64 `json:"points_done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The scrape happens after /stats, so every counter the sweep moved
	// is already settled; /stats itself is not metered as a sweep.
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("metrics Content-Type = %q, want %q", ct, promtext.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := promtext.Lint(raw); err != nil {
		t.Fatalf("exposition is malformed: %v", err)
	}
	exposition := string(raw)
	for _, pair := range []struct {
		sample string
		want   int64
	}{
		{"sweep_requests_total", stats.Requests},
		{"sweep_point_cache_hits_total", stats.CacheHits},
		{"sweep_point_cache_misses_total", stats.CacheMisses},
		{"sweep_points_done_total", stats.PointsDone},
	} {
		if got := sampleValue(t, exposition, pair.sample); got != float64(pair.want) {
			t.Errorf("%s = %v, /stats says %d", pair.sample, got, pair.want)
		}
	}
	if got := sampleValue(t, exposition, "sweep_requests_total"); got != 1 {
		t.Errorf("sweep_requests_total = %v after one sweep, want 1", got)
	}
	// The request histogram is observed before the response's last chunk
	// leaves, so one finished sweep is exactly one observation.
	for _, sample := range []string{"sweep_request_seconds_count", `sweep_request_seconds_bucket{le="+Inf"}`} {
		if got := sampleValue(t, exposition, sample); got != 1 {
			t.Errorf("%s = %v after one sweep, want 1", sample, got)
		}
	}
	for _, line := range []string{
		"# HELP sweep_requests_total ",
		"# TYPE sweep_request_seconds histogram\n",
		"\nbuild_info{",
	} {
		if !strings.Contains(exposition, line) {
			t.Errorf("exposition lacks %q", line)
		}
	}

	// The pprof surface answers only on the private listener.
	resp, err = http.Get(debugURL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	cmdline, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(cmdline), "sweepd") {
		t.Errorf("pprof cmdline %q does not name the binary", cmdline)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("sweepd did not exit cleanly on SIGTERM: %v", err)
	}
}

func TestSweepdRejectsOversizedRequests(t *testing.T) {
	cmd, url := startSweepd(t, "-max-points", "3")
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	resp, err := http.Post(url+"/sweep", "application/json",
		strings.NewReader(`{"useful":[2,4,6,8],"benchmarks":["gcc"],"instructions":3000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for a grid past -max-points", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "points") {
		t.Fatalf("error %q does not mention the point limit", e.Error)
	}
}
