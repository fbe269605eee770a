package main

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzManifestCheck drives manifest validation — the external input
// surface of cmd/manifestcheck — with arbitrary documents. Invalid
// input must be rejected with an error, never a panic, and anything
// accepted must keep validating across a JSON round trip (checkBytes
// asserts that internally).
func FuzzManifestCheck(f *testing.F) {
	valid, err := json.Marshal(obs.NewManifest("fuzz", map[string]any{"n": 1}, time.Second, obs.New(nil).Snapshot()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"command":"x","go_version":"go1.22","gomaxprocs":1,"num_cpu":1,` +
		`"config":{},"wall_ms":1,"telemetry":{"counters":{},"worker_tasks":{}}}`))
	f.Add([]byte(`{"command":"x","gomaxprocs":-1}`))
	f.Add([]byte(`{"command":"x","wall_ms":-0.5}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		summary, err := checkBytes(raw)
		if err == nil && summary == "" {
			t.Errorf("accepted manifest produced an empty summary (input %q)", raw)
		}
	})
}

// TestCheckBytesSeeds pins the intended verdicts of the seed corpus so
// the fuzz target keeps distinguishing valid from invalid documents.
func TestCheckBytesSeeds(t *testing.T) {
	valid, err := json.Marshal(obs.NewManifest("seed", nil, time.Second, obs.New(nil).Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkBytes(valid); err != nil {
		t.Errorf("freshly built manifest rejected: %v", err)
	}
	for _, bad := range []string{`{}`, `not json`, `null`, `{"command":"x","gomaxprocs":-1}`} {
		if _, err := checkBytes([]byte(bad)); err == nil {
			t.Errorf("invalid manifest %q accepted", bad)
		}
	}
}
