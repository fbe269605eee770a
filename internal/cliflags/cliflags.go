// Package cliflags centralizes the flag surface shared by the cmd/
// binaries. Every simulation-driven command accepts the same -n, -seed,
// -workers, -bench and -json flags with identical semantics, plus the
// telemetry surface (-v, -quiet, -manifest, -cpuprofile, -memprofile,
// -trace) from internal/obs; commands add their own extras (like
// pipesweep's -fig) on top.
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Sim holds the simulation flags every study binary accepts.
type Sim struct {
	N       *int
	Seed    *uint64
	Workers *int
	Bench   *string
	JSON    *bool
}

// Register declares the shared simulation flags on the default flag set;
// call it before flag.Parse. defaultN sets the -n default, which differs
// between the full evaluation binaries and the characterization tools.
func Register(defaultN int) *Sim {
	return RegisterOn(flag.CommandLine, defaultN)
}

// RegisterOn declares the shared simulation flags on an explicit flag
// set. The binaries go through Register; tests and the fuzz harness use
// a private flag set so repeated parses never collide on the global
// one.
func RegisterOn(fs *flag.FlagSet, defaultN int) *Sim {
	return &Sim{
		N:       fs.Int("n", defaultN, "instructions per benchmark"),
		Seed:    fs.Uint64("seed", 1, "trace generation seed"),
		Workers: fs.Int("workers", 0, "simulation worker pool size (0 = all CPUs, 1 = serial)"),
		Bench:   fs.String("bench", "", "only run benchmarks whose names contain this substring"),
		JSON:    fs.Bool("json", false, "emit machine-readable JSON instead of text"),
	}
}

// JSONFlag declares just the -json flag, for binaries (latchsim,
// cactigen) whose experiments take no simulation parameters.
func JSONFlag() *bool {
	return flag.Bool("json", false, "emit machine-readable JSON instead of text")
}

// Options validates the parsed flags and converts them to experiment
// options. It is separate from MustOptions so the validation is testable.
func (s *Sim) Options() (experiments.Options, error) {
	var o experiments.Options
	if *s.N <= 0 {
		return o, fmt.Errorf("-n must be positive, got %d", *s.N)
	}
	if *s.Workers < 0 {
		return o, fmt.Errorf("-workers must be >= 0, got %d", *s.Workers)
	}
	if *s.Bench != "" && len(experiments.MatchBenchmarks(*s.Bench)) == 0 {
		return o, fmt.Errorf("-bench %q matches no SPEC 2000 benchmark", *s.Bench)
	}
	return experiments.Options{
		Instructions: *s.N,
		Seed:         *s.Seed,
		Workers:      *s.Workers,
		Bench:        *s.Bench,
	}, nil
}

// MustOptions is Options with the conventional exit-on-error behavior.
func (s *Sim) MustOptions() experiments.Options {
	o, err := s.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	return o
}

// Srv holds the serving flags of cmd/sweepd: listener address, admission
// bounds and the graceful-drain budget, alongside the same -workers knob
// the study binaries use for their simulation pools.
type Srv struct {
	Addr            *string
	Workers         *int
	Queue           *int
	MaxPoints       *int
	MaxInstructions *int
	Cache           *int
	DrainTimeout    *time.Duration

	// Persistence knobs: Store enables the durable result store
	// (internal/store) in the named directory, SegmentBytes rotates its
	// append-only log segments, CompactInterval paces the compaction
	// coordinator (0 disables it). RetryAfter is the Retry-After header
	// value on 429/503, so client backoff is operator-tunable.
	Store           *string
	SegmentBytes    *int64
	CompactInterval *time.Duration
	RetryAfter      *int

	// Observability knobs: Metrics gates the /metrics exposition
	// endpoint, SlowRequest is the latency past which a request logs at
	// Warn (0 disables), DebugAddr binds a second, private listener
	// serving /debug/pprof so a live daemon can be profiled without
	// restarting (empty = no debug listener).
	Metrics     *bool
	SlowRequest *time.Duration
	DebugAddr   *string
}

// RegisterServe declares the serving flags on the default flag set.
func RegisterServe() *Srv {
	return RegisterServeOn(flag.CommandLine)
}

// RegisterServeOn declares the serving flags on an explicit flag set,
// for tests that parse repeatedly.
func RegisterServeOn(fs *flag.FlagSet) *Srv {
	return &Srv{
		Addr:            fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)"),
		Workers:         fs.Int("workers", 0, "simulation workers, each running one benchmark trace's queued points at a time (0 = all CPUs, 1 = serial)"),
		Queue:           fs.Int("queue", 4096, "max queued sweep points before requests get 429"),
		MaxPoints:       fs.Int("max-points", 1024, "max distinct points one request may expand to"),
		MaxInstructions: fs.Int("max-instructions", 1_000_000, "max instructions per trace a request may ask for"),
		Cache:           fs.Int("cache", 16384, "max cached point results before LRU eviction (-1 = unbounded)"),
		DrainTimeout:    fs.Duration("drain-timeout", 30*time.Second, "how long graceful shutdown waits for in-flight streams"),
		Store:           fs.String("store", "", "directory for the durable result store (empty = memory-only); restarts warm-start from it and enable GET /results delta sync"),
		SegmentBytes:    fs.Int64("segment-bytes", 8<<20, "rotate the store's append-only log segments at this size"),
		CompactInterval: fs.Duration("compact-interval", time.Minute, "how often the store's compaction coordinator retires superseded segments (0 = never)"),
		RetryAfter:      fs.Int("retry-after", 1, "Retry-After seconds sent with 429 (queue full) and 503 (draining) responses"),
		Metrics:         fs.Bool("metrics", true, "serve Prometheus text exposition on GET /metrics (-metrics=false disables)"),
		SlowRequest:     fs.Duration("slow-request", 0, "log requests slower than this at Warn and count them (0 = disabled)"),
		DebugAddr:       fs.String("debug-addr", "", "bind a second listener serving /debug/pprof on this host:port (empty = disabled; keep it private)"),
	}
}

// Validate rejects nonsensical serving flags before the daemon binds.
func (s *Srv) Validate() error {
	if *s.Addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if *s.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *s.Workers)
	}
	if *s.Queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", *s.Queue)
	}
	if *s.MaxPoints <= 0 {
		return fmt.Errorf("-max-points must be positive, got %d", *s.MaxPoints)
	}
	if *s.MaxInstructions <= 0 {
		return fmt.Errorf("-max-instructions must be positive, got %d", *s.MaxInstructions)
	}
	if *s.Cache <= 0 && *s.Cache != -1 {
		return fmt.Errorf("-cache must be positive or -1 for unbounded, got %d", *s.Cache)
	}
	if *s.DrainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *s.DrainTimeout)
	}
	if *s.SegmentBytes <= 0 {
		return fmt.Errorf("-segment-bytes must be positive, got %d", *s.SegmentBytes)
	}
	if *s.CompactInterval < 0 {
		return fmt.Errorf("-compact-interval must be >= 0 (0 disables compaction), got %v", *s.CompactInterval)
	}
	if *s.RetryAfter <= 0 {
		return fmt.Errorf("-retry-after must be positive, got %d", *s.RetryAfter)
	}
	if *s.SlowRequest < 0 {
		return fmt.Errorf("-slow-request must be >= 0 (0 disables the slow log), got %v", *s.SlowRequest)
	}
	if *s.DebugAddr != "" {
		if _, _, err := net.SplitHostPort(*s.DebugAddr); err != nil {
			return fmt.Errorf("-debug-addr %q is not a host:port: %v", *s.DebugAddr, err)
		}
	}
	return nil
}

// MustValidate is Validate with the conventional exit-on-error behavior.
func (s *Srv) MustValidate() {
	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
}

// Tel holds the telemetry flags every study binary accepts. The run log
// goes to stderr so it never mixes into the study output on stdout.
type Tel struct {
	Verbose    *bool
	Quiet      *bool
	Manifest   *string
	CPUProfile *string
	MemProfile *string
	Trace      *string
}

// RegisterTel declares the shared telemetry flags on the default flag
// set; call it before flag.Parse, alongside Register.
func RegisterTel() *Tel {
	return &Tel{
		Verbose:    flag.Bool("v", false, "verbose run log on stderr (per-study progress)"),
		Quiet:      flag.Bool("quiet", false, "log only errors on stderr"),
		Manifest:   flag.String("manifest", "", "write a run-manifest JSON (environment, config, timings, counters) to this path"),
		CPUProfile: flag.String("cpuprofile", "", "write a CPU profile to this path"),
		MemProfile: flag.String("memprofile", "", "write a heap profile to this path"),
		Trace:      flag.String("trace", "", "write a runtime execution trace to this path"),
	}
}

// Start validates the parsed telemetry flags and opens the run: logger
// configured, profiling started. The caller owns the returned run and
// must Close it after emitting its output.
func (t *Tel) Start(command string) (*obs.Run, error) {
	return obs.Start(obs.StartOptions{
		Command:    command,
		Verbose:    *t.Verbose,
		Quiet:      *t.Quiet,
		Manifest:   *t.Manifest,
		CPUProfile: *t.CPUProfile,
		MemProfile: *t.MemProfile,
		Trace:      *t.Trace,
	})
}

// MustStart is Start with the conventional exit-on-error behavior.
func (t *Tel) MustStart(command string) *obs.Run {
	run, err := t.Start(command)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	return run
}

// MustRun is the one-call setup for the simulation binaries: validate the
// simulation flags, start telemetry, record the simulation configuration
// in the manifest, and hand the recorder to the experiment options.
func MustRun(command string, sim *Sim, tel *Tel) (experiments.Options, *obs.Run) {
	o := sim.MustOptions()
	run := tel.MustStart(command)
	run.SetConfig("instructions", o.Instructions)
	run.SetConfig("seed", o.Seed)
	run.SetConfig("workers", o.Workers)
	run.SetConfig("bench", o.Bench)
	run.SetConfig("json", *sim.JSON)
	o.Obs = run.Recorder()
	return o, run
}

// MustClose finishes a telemetry run — stops profiles, writes the heap
// profile and manifest — exiting nonzero if any of that fails.
func MustClose(run *obs.Run) {
	if err := run.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// Result is what every experiment driver returns: a text rendering in the
// shape the paper reports.
type Result interface{ Render() string }

// JSONer is implemented by results that have a structured export.
type JSONer interface{ JSON() ([]byte, error) }

// Emit prints each result in the selected format. Text results are
// blank-line separated, as the binaries always printed them. In JSON mode
// each result prints as one indented object (a JSON-lines-style stream);
// results without a structured export fall back to their text rendering
// wrapped in {"text": ...}.
func Emit(asJSON bool, rs ...Result) {
	for i, r := range rs {
		if !asJSON {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(r.Render())
			continue
		}
		raw, err := jsonFor(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", raw)
	}
}

func jsonFor(r Result) ([]byte, error) {
	if j, ok := r.(JSONer); ok {
		return j.JSON()
	}
	return json.MarshalIndent(struct {
		Text string `json:"text"`
	}{r.Render()}, "", "  ")
}
