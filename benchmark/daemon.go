package main

// sweepd plumbing: boots through internal/clitest, and the daemon's own
// observation surfaces (/stats, /metrics, the access log, /proc).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clitest"
	"repro/internal/serve"
)

// boot starts sweepd, waits until /healthz answers 200 and returns the
// daemon with its set-up time: from exec until the server was built,
// after flag parsing and, for a durable store, segment replay.
//
// The readiness polling ticks every 2 ms, as long as a whole memory-only
// boot, so timing the boot by it would read one or two ticks. The
// daemon's /stats uptime counts from the moment the server was built,
// so the set-up is read from it instead: exec to the /stats reply, less
// the uptime, with the reply taken as arriving half-way through its
// round trip.
func boot(bin, logPath string, args ...string) (*clitest.Daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := clitest.StartDaemon(bin, logPath, clitest.DefaultWait, args...)
	if err != nil {
		return nil, 0, err
	}
	c := newHTTPClient(d.URL)
	defer c.close()
	var st serve.Stats
	err = clitest.WaitHealthy(d.URL, clitest.DefaultWait)
	sent := time.Now()
	var body []byte
	if err == nil {
		body, err = c.fetch("/stats")
	}
	replied := sent.Add(time.Since(sent) / 2)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		d.Kill()
		return nil, 0, err
	}
	return d, replied.Sub(t0) - time.Duration(st.UptimeSeconds*float64(time.Second)), nil
}

// stop drains the daemon with SIGTERM and waits for it; the drain
// contract says it exits 0.
func stop(d *clitest.Daemon) error {
	if d == nil || !d.Running() {
		return nil
	}
	code, err := d.Shutdown()
	if err == nil && code != 0 {
		err = fmt.Errorf("sweepd exited %d after SIGTERM; log tail:\n%s", code, clitest.LogTail(d.LogPath, 2048))
	}
	return err
}

// snapshot is the daemon's observable state at one instant.
type snapshot struct {
	stats      serve.Stats
	statsBody  []byte
	metricBody []byte
}

func takeSnapshot(c *httpClient) (snapshot, error) {
	var s snapshot
	var err error
	if s.statsBody, err = c.fetch("/stats"); err != nil {
		return s, err
	}
	if err = json.Unmarshal(s.statsBody, &s.stats); err != nil {
		return s, fmt.Errorf("decoding /stats: %w", err)
	}
	s.metricBody, err = c.fetch("/metrics")
	return s, err
}

func (s snapshot) counter(name string) int64 { return s.stats.Telemetry.Counters[name] }

// promValue reads one sample from Prometheus text: the first line whose
// series (name plus any labels) is exactly series. 0 when absent.
func promValue(text []byte, series string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// codeVersion reads the cache-key version stamp from build_info, so the
// benchmark expands requests into exactly the keys the daemon serves.
func codeVersion(metrics []byte) (string, error) {
	const marker = `code_version="`
	i := bytes.Index(metrics, []byte(marker))
	if i < 0 {
		return "", fmt.Errorf("/metrics carries no build_info code_version")
	}
	rest := metrics[i+len(marker):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("unterminated code_version label")
	}
	return string(rest[:j]), nil
}

// residentMB is the process's resident set size (VmRSS).
func residentMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// accessLog reads the daemon's structured access log (sweepd -v) and
// returns each request's handler duration by X-Request-Id.
func accessLog(path string) (map[string]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]time.Duration{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, " msg=request ") {
			continue
		}
		var id string
		var dur time.Duration
		for _, field := range strings.Fields(line) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "request_id":
				id = v
			case "duration":
				dur, _ = time.ParseDuration(v)
			}
		}
		if id != "" {
			out[id] = dur
		}
	}
	return out, sc.Err()
}
