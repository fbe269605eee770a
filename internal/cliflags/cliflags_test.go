package cliflags

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sim(n, workers int, seed uint64, bench string) *Sim {
	j := false
	return &Sim{N: &n, Seed: &seed, Workers: &workers, Bench: &bench, JSON: &j}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		s       *Sim
		wantErr string
	}{
		{"defaults", sim(40000, 0, 1, ""), ""},
		{"serial", sim(40000, 1, 1, ""), ""},
		{"bench filter", sim(40000, 0, 1, "gcc"), ""},
		{"bench filter case-insensitive", sim(40000, 0, 1, "GCC"), ""},
		{"zero n", sim(0, 0, 1, ""), "-n must be positive"},
		{"negative workers", sim(40000, -2, 1, ""), "-workers must be >= 0"},
		{"unknown bench", sim(40000, 0, 1, "no-such-spec"), "matches no SPEC 2000 benchmark"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := c.s.Options()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if o.Instructions != *c.s.N || o.Workers != *c.s.Workers ||
					o.Seed != *c.s.Seed || o.Bench != *c.s.Bench {
					t.Errorf("options %+v do not mirror flags", o)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

type textOnly struct{}

func (textOnly) Render() string { return "plain" }

func TestJSONFallbackWrapsText(t *testing.T) {
	raw, err := jsonFor(textOnly{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"text": "plain"`) {
		t.Errorf("fallback JSON = %s", raw)
	}
}

func tel(verbose, quiet bool, manifest, cpu, mem, trc string) *Tel {
	return &Tel{
		Verbose:    &verbose,
		Quiet:      &quiet,
		Manifest:   &manifest,
		CPUProfile: &cpu,
		MemProfile: &mem,
		Trace:      &trc,
	}
}

func TestTelStartRejectsVerboseQuiet(t *testing.T) {
	_, err := tel(true, true, "", "", "", "").Start("x")
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want the -v/-quiet exclusivity error", err)
	}
}

func TestTelStartRejectsBadProfilePaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.out")
	cases := map[string]*Tel{
		"cpuprofile": tel(false, false, "", bad, "", ""),
		"trace":      tel(false, false, "", "", "", bad),
	}
	for name, tl := range cases {
		if _, err := tl.Start("x"); err == nil {
			t.Errorf("Start accepted unwritable -%s path", name)
		}
	}
}

func TestTelLifecycleEmitsValidManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	run, err := tel(false, false, path, "", filepath.Join(dir, "mem.pprof"), "").Start("cliflags-test")
	if err != nil {
		t.Fatal(err)
	}
	run.SetConfig("instructions", 1234)
	end := run.Recorder().Study("probe")
	end()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
	if m.Command != "cliflags-test" || len(m.Telemetry.Studies) != 1 {
		t.Errorf("manifest = command %q, %d studies", m.Command, len(m.Telemetry.Studies))
	}
}

func TestOptionsRejectsBenchWithOnlySpaces(t *testing.T) {
	// A filter of whitespace matches no benchmark name and must be
	// rejected like any other unknown filter, not silently run nothing.
	_, err := sim(40000, 0, 1, "   ").Options()
	if err == nil || !strings.Contains(err.Error(), "matches no SPEC 2000 benchmark") {
		t.Errorf("err = %v, want no-match rejection", err)
	}
}

func TestSrvValidation(t *testing.T) {
	srvFlags := func(mutate func(*Srv)) *Srv {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := RegisterServeOn(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		mutate(s)
		return s
	}
	cases := []struct {
		name    string
		mutate  func(*Srv)
		wantErr string
	}{
		{"defaults", func(s *Srv) {}, ""},
		{"port zero", func(s *Srv) { *s.Addr = ":0" }, ""},
		{"empty addr", func(s *Srv) { *s.Addr = "" }, "-addr must not be empty"},
		{"negative workers", func(s *Srv) { *s.Workers = -1 }, "-workers must be >= 0"},
		{"zero queue", func(s *Srv) { *s.Queue = 0 }, "-queue must be positive"},
		{"zero max points", func(s *Srv) { *s.MaxPoints = 0 }, "-max-points must be positive"},
		{"zero max instructions", func(s *Srv) { *s.MaxInstructions = 0 }, "-max-instructions must be positive"},
		{"zero cache", func(s *Srv) { *s.Cache = 0 }, "-cache must be positive"},
		{"unbounded cache", func(s *Srv) { *s.Cache = -1 }, ""},
		{"zero drain timeout", func(s *Srv) { *s.DrainTimeout = 0 }, "-drain-timeout must be positive"},
		{"store directory", func(s *Srv) { *s.Store = "/tmp/results" }, ""},
		{"zero segment bytes", func(s *Srv) { *s.SegmentBytes = 0 }, "-segment-bytes must be positive"},
		{"negative segment bytes", func(s *Srv) { *s.SegmentBytes = -1 }, "-segment-bytes must be positive"},
		{"compaction disabled", func(s *Srv) { *s.CompactInterval = 0 }, ""},
		{"negative compact interval", func(s *Srv) { *s.CompactInterval = -time.Second }, "-compact-interval must be >= 0"},
		{"zero retry after", func(s *Srv) { *s.RetryAfter = 0 }, "-retry-after must be positive"},
		{"negative retry after", func(s *Srv) { *s.RetryAfter = -2 }, "-retry-after must be positive"},
		{"metrics disabled", func(s *Srv) { *s.Metrics = false }, ""},
		{"slow request threshold", func(s *Srv) { *s.SlowRequest = 500 * time.Millisecond }, ""},
		{"slow request disabled", func(s *Srv) { *s.SlowRequest = 0 }, ""},
		{"negative slow request", func(s *Srv) { *s.SlowRequest = -time.Second }, "-slow-request must be >= 0"},
		{"debug addr loopback", func(s *Srv) { *s.DebugAddr = "127.0.0.1:6060" }, ""},
		{"debug addr free port", func(s *Srv) { *s.DebugAddr = "localhost:0" }, ""},
		{"debug addr no port", func(s *Srv) { *s.DebugAddr = "localhost" }, "-debug-addr"},
		{"debug addr garbage", func(s *Srv) { *s.DebugAddr = "not an addr" }, "-debug-addr"},
		{"debug addr stray colon", func(s *Srv) { *s.DebugAddr = "1.2.3.4:70000:x" }, "-debug-addr"},
	}
	for _, c := range cases {
		err := srvFlags(c.mutate).Validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}
