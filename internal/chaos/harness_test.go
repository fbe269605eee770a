// Package chaos is the serving path's fault-injection oracle: a seeded
// black-box harness that boots real sweepd binaries and drives them
// through a weighted random mix of the abuse a production daemon eats —
// overlapping grids from concurrent actors, clients hanging up
// mid-stream, slow readers, SIGKILL followed by a warm restart over the
// durable store, SIGTERM with streams in flight, cache pressure under a
// tiny -cache, delta-sync pulls that resume across restarts, and
// /metrics-vs-/stats scrapes — then checks, after every action, the
// invariants the paper's methodology makes strong and cheap:
//
//   - byte-identity: a grid point's NDJSON line never varies — across
//     clients, across restarts, across list-vs-range request forms,
//     and (in the run epilogue) across worker counts: two workers
//     during the run, one in a fresh memory-only replay.
//   - admission conservation: cache_hits + cache_misses equals the
//     points admitted by 200-status responses, and every miss becomes
//     exactly one points_done or points_dropped.
//   - overlap accounting: N clients racing one fresh grid cost exactly
//     len(grid) simulations; the other (N-1)*len(grid) are hits.
//   - no leaked queue entries: the queue and inflight gauges return to
//     zero after every action, disconnects included.
//   - warm restart: a SIGKILLed daemon restarted over its -store serves
//     its whole history with zero re-simulations.
//   - surface agreement: /metrics counters equal their /stats twins.
//   - clean drain: SIGTERM completes in-flight streams (trailer and
//     all) and the process exits 0.
//
// Every random choice flows from one seed, so a failure replays:
//
//	go test ./internal/chaos -run 'TestChaos$' -chaos.seed=N -chaos.actions=M
//
// Known-bad seeds live in regression_seeds.json and replay forever via
// TestRegressionSeeds.
package chaos

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/clitest"
)

var (
	chaosActions = flag.Int("chaos.actions", 25, "actions per chaos run (TestChaos)")
	chaosSeed    = flag.Uint64("chaos.seed", 1, "seed driving the whole action mix (TestChaos)")
	chaosLogDir  = flag.String("chaos.logdir", "", "directory keeping daemon logs and action traces (default: a per-run temp dir; CI points this somewhere it can upload as an artifact)")
)

// binDir holds the sweepd binary built once for the whole test run.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "chaos-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	binDir = dir
	// The chaos oracle only drives the daemon; building just sweepd
	// keeps the package's fixed cost at one cached link.
	if err := clitest.BuildCmds("../..", binDir, "./cmd/sweepd"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// sweepdBin is the daemon binary under test.
func sweepdBin() string { return binDir + string(os.PathSeparator) + "sweepd" }

// logDir resolves where this run's daemon logs and action traces live.
func logDir(t *testing.T) string {
	if *chaosLogDir != "" {
		if err := os.MkdirAll(*chaosLogDir, 0o755); err != nil {
			t.Fatalf("chaos: creating -chaos.logdir: %v", err)
		}
		return *chaosLogDir
	}
	return t.TempDir()
}

// TestSourcesKeyTheTestCache ties this package's cached result to the
// module's sources: sweepd is built in a subprocess, so the test
// binary's own imports do not cover the daemon's code.
func TestSourcesKeyTheTestCache(t *testing.T) {
	if err := clitest.WatchSources("../.."); err != nil {
		t.Fatal(err)
	}
}

// TestChaos is the flag-driven chaos run: -chaos.seed picks the action
// sequence, -chaos.actions its length. The default is a CI-sized smoke;
// the acceptance configuration is -chaos.actions=200 -chaos.seed=42.
func TestChaos(t *testing.T) {
	runChaos(t, *chaosSeed, *chaosActions)
}
