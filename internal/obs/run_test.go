package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStartRejectsVerboseAndQuiet(t *testing.T) {
	if _, err := Start(StartOptions{Command: "x", Verbose: true, Quiet: true}); err == nil {
		t.Fatal("Start accepted -v with -quiet")
	} else if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("error %q does not name the exclusivity", err)
	}
}

func TestStartRejectsUnwritableProfilePaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.pprof")
	if _, err := Start(StartOptions{Command: "x", CPUProfile: bad}); err == nil {
		t.Error("Start accepted an unwritable -cpuprofile path")
	}
	if _, err := Start(StartOptions{Command: "x", Trace: bad}); err == nil {
		t.Error("Start accepted an unwritable -trace path")
	}
}

func TestRunLifecycleWritesProfilesAndManifest(t *testing.T) {
	dir := t.TempDir()
	var logBuf bytes.Buffer
	run, err := Start(StartOptions{
		Command:    "testrun",
		Verbose:    true,
		Manifest:   filepath.Join(dir, "manifest.json"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		Trace:      filepath.Join(dir, "trace.out"),
		LogWriter:  &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	run.SetConfig("seed", 7)
	rec := run.Recorder()
	end := rec.Study("demo")
	rec.Task(0, 0, time.Millisecond)
	rec.Add("trace_cache_hits", 3)
	end()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	for _, f := range []string{"cpu.pprof", "mem.pprof", "trace.out", "manifest.json"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
	if m.Command != "testrun" || m.Config["seed"] != float64(7) {
		t.Errorf("manifest command/config = %q/%v", m.Command, m.Config)
	}
	if m.Telemetry.Counters["trace_cache_hits"] != 3 {
		t.Errorf("manifest counters = %v", m.Telemetry.Counters)
	}
	if len(m.Telemetry.Studies) != 1 || m.Telemetry.Studies[0].Name != "demo" {
		t.Errorf("manifest studies = %+v", m.Telemetry.Studies)
	}
	if !strings.Contains(logBuf.String(), "study start") {
		t.Errorf("verbose log missing study progress: %q", logBuf.String())
	}
}

func TestManifestValidate(t *testing.T) {
	good := NewManifest("cmd", nil, time.Second, New(nil).Snapshot())
	if err := good.Validate(); err != nil {
		t.Errorf("fresh manifest invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"command", func(m *Manifest) { m.Command = "" }},
		{"go_version", func(m *Manifest) { m.GoVersion = "" }},
		{"gomaxprocs", func(m *Manifest) { m.GOMAXPROCS = 0 }},
		{"num_cpu", func(m *Manifest) { m.NumCPU = 0 }},
		{"config", func(m *Manifest) { m.Config = nil }},
		{"wall", func(m *Manifest) { m.WallMS = -1 }},
		{"counters", func(m *Manifest) { m.Telemetry.Counters = nil }},
		{"worker_tasks", func(m *Manifest) { m.Telemetry.WorkerTasks = nil }},
	}
	for _, c := range cases {
		m := good
		c.mutate(&m)
		if m.Validate() == nil {
			t.Errorf("Validate accepted manifest with broken %s", c.name)
		}
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	rec := New(nil)
	end := rec.Study("s")
	rec.Task(2, 0, 5*time.Millisecond)
	rec.Add("simulations", 9)
	end()
	m := NewManifest("round", map[string]any{"n": 2000}, 123*time.Millisecond, rec.Snapshot())

	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Errorf("manifest does not round-trip:\n%s\n%s", raw, raw2)
	}
	if back.Telemetry.Counters["simulations"] != 9 || back.Telemetry.WorkerTasks["2"] != 1 {
		t.Errorf("round-tripped telemetry = %+v", back.Telemetry)
	}
}
