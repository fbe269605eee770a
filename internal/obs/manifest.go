package obs

import (
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"time"
)

// Manifest is the run-manifest JSON every cmd binary can emit alongside
// its study output (-manifest <path>): the environment, configuration and
// telemetry snapshot that make a recorded result self-describing, so perf
// trajectories compare like with like.
type Manifest struct {
	Command    string         `json:"command"`
	Args       []string       `json:"args"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Config     map[string]any `json:"config"`
	WallMS     float64        `json:"wall_ms"`
	Telemetry  Snapshot       `json:"telemetry"`
}

// NewManifest fills the environment fields around the given run facts.
// Config may be nil; it is normalized to an empty map so the JSON always
// carries the key.
func NewManifest(command string, config map[string]any, wall time.Duration, snap Snapshot) Manifest {
	if config == nil {
		config = map[string]any{}
	}
	return Manifest{
		Command:    command,
		Args:       os.Args[1:],
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Config:     config,
		WallMS:     float64(wall) / float64(time.Millisecond),
		Telemetry:  snap,
	}
}

// WriteManifest marshals the manifest and writes it to path.
func WriteManifest(path string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Validate checks the fields every emitted manifest must carry. It is the
// contract cmd/manifestcheck asserts.
func (m Manifest) Validate() error {
	switch {
	case m.Command == "":
		return errors.New("manifest: missing command")
	case m.GoVersion == "":
		return errors.New("manifest: missing go_version")
	case m.GOMAXPROCS < 1:
		return errors.New("manifest: gomaxprocs must be >= 1")
	case m.NumCPU < 1:
		return errors.New("manifest: num_cpu must be >= 1")
	case m.Config == nil:
		return errors.New("manifest: missing config")
	case m.WallMS < 0:
		return errors.New("manifest: negative wall_ms")
	case m.Telemetry.Counters == nil:
		return errors.New("manifest: missing telemetry counters")
	case m.Telemetry.WorkerTasks == nil:
		return errors.New("manifest: missing telemetry worker_tasks")
	}
	return nil
}
