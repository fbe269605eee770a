// The e2e tests in this file drive every cmd/ binary through its real
// CLI. Goldens live under testdata/ and regenerate with
//
//	go test ./internal/clitest -run Golden -update
package clitest

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// binDir holds the freshly built binaries for the whole test run.
var binDir string

// commands is every binary under cmd/, kept in sync by TestMain, which
// fails if the build produces a different set.
var commands = []string{
	"benchdiff", "cactigen", "experiments", "latchsim", "manifestcheck",
	"pipesweep", "reprolint", "segwin", "structopt", "sweepd",
	"traceinfo", "wirestudy",
}

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "clitest-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "clitest:", err)
		os.Exit(1)
	}
	binDir = dir
	// One build for all binaries; go's build cache makes this cheap when
	// the tree hasn't changed.
	if err := BuildCmds("../..", binDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// TestSourcesKeyTheTestCache ties this package's cached result to the
// module's sources: the binaries it drives are built in a subprocess,
// so the test binary's own imports do not cover their code.
func TestSourcesKeyTheTestCache(t *testing.T) {
	if err := WatchSources("../.."); err != nil {
		t.Fatal(err)
	}
}

func TestEveryCommandBuilt(t *testing.T) {
	entries, err := os.ReadDir(binDir)
	if err != nil {
		t.Fatal(err)
	}
	var built []string
	for _, e := range entries {
		built = append(built, e.Name())
	}
	if got, want := fmt.Sprint(built), fmt.Sprint(commands); got != want {
		t.Fatalf("built binaries %v, harness expects %v — update the commands list", built, commands)
	}
}

// bin returns the path of one built binary.
func bin(name string) string {
	return filepath.Join(binDir, name)
}

// run executes one built binary from the package directory (so testdata/
// paths stay relative and deterministic) and returns stdout, stderr and
// the exit code.
func run(t *testing.T, name string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	exit = 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return out.String(), errb.String(), exit
}

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after intentional changes):\n--- want\n%s\n--- got\n%s", path, want, got)
	}
}

// The golden runs pin the exact stdout of the study binaries on small,
// fast configurations. Simulation output is deterministic across worker
// counts, but the goldens pin -workers 1 anyway so a determinism
// regression shows up as a golden diff here and as a test failure in
// internal/exec, not as flakiness.

func TestGoldenPipesweepFigure5(t *testing.T) {
	stdout, _, exit := run(t, "pipesweep", "-fig", "5", "-n", "2000", "-workers", "1")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "pipesweep_fig5.txt", stdout)
}

func TestGoldenPipesweepFigure4aJSON(t *testing.T) {
	stdout, _, exit := run(t, "pipesweep", "-fig", "4a", "-n", "2000", "-workers", "1", "-json")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "pipesweep_fig4a.json", stdout)
}

func TestGoldenSegwin(t *testing.T) {
	stdout, _, exit := run(t, "segwin", "-n", "1000", "-workers", "1")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "segwin.txt", stdout)
}

func TestGoldenLatchsim(t *testing.T) {
	stdout, _, exit := run(t, "latchsim")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "latchsim.txt", stdout)
}

func TestGoldenTraceinfo(t *testing.T) {
	stdout, _, exit := run(t, "traceinfo", "-n", "5000", "-workers", "1")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "traceinfo.txt", stdout)
}

func TestGoldenCactigen(t *testing.T) {
	stdout, _, exit := run(t, "cactigen")
	if exit != 0 {
		t.Fatalf("exit = %d", exit)
	}
	checkGolden(t, "cactigen.txt", stdout)
}

func TestGoldenBenchdiff(t *testing.T) {
	stdout, _, exit := run(t, "benchdiff", "testdata/bench_old.txt", "testdata/bench_new_ok.txt")
	if exit != 0 {
		t.Fatalf("clean comparison exit = %d, want 0", exit)
	}
	checkGolden(t, "benchdiff_ok.txt", stdout)

	stdout, _, exit = run(t, "benchdiff", "testdata/bench_old.txt", "testdata/bench_new_bad.txt")
	if exit != 1 {
		t.Fatalf("regression comparison exit = %d, want 1", exit)
	}
	checkGolden(t, "benchdiff_bad.txt", stdout)
}

func TestBenchdiffRecordRoundTrip(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	_, stderr, exit := run(t, "benchdiff", "-record", baseline, "testdata/bench_old.txt")
	if exit != 0 {
		t.Fatalf("-record exit = %d: %s", exit, stderr)
	}
	// A recorded baseline must compare clean against its own source.
	stdout, stderr, exit := run(t, "benchdiff", baseline, "testdata/bench_old.txt")
	if exit != 0 {
		t.Fatalf("self-comparison exit = %d: %s%s", exit, stdout, stderr)
	}
}

func TestManifestcheck(t *testing.T) {
	// The error path is deterministic: golden it.
	stdout, stderr, exit := run(t, "manifestcheck", "testdata/bad_manifest.json")
	if exit != 1 {
		t.Fatalf("bad manifest exit = %d, want 1 (stdout %q)", exit, stdout)
	}
	checkGolden(t, "manifestcheck_bad.txt", stderr)

	// The ok path carries environment-dependent fields (go version,
	// GOMAXPROCS, wall time), so pin its shape, not its bytes: record a
	// real manifest with a profiled pipesweep run and validate it.
	dir := t.TempDir()
	manifest, profile := filepath.Join(dir, "run.json"), filepath.Join(dir, "cpu.pprof")
	if _, stderr, exit := run(t, "pipesweep", "-fig", "4a", "-n", "500", "-workers", "1",
		"-cpuprofile", profile, "-manifest", manifest); exit != 0 {
		t.Fatalf("pipesweep -cpuprofile -manifest exit = %d: %s", exit, stderr)
	}
	if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
		t.Fatalf("pipesweep -cpuprofile left no profile: %v", err)
	}
	stdout, stderr, exit = run(t, "manifestcheck", manifest)
	if exit != 0 {
		t.Fatalf("manifestcheck exit = %d: %s", exit, stderr)
	}
	if !strings.Contains(stdout, "ok: command=pipesweep") {
		t.Fatalf("manifestcheck stdout %q does not report the pipesweep run", stdout)
	}

	if _, _, exit := run(t, "manifestcheck"); exit != 2 {
		t.Errorf("no-args exit = %d, want 2", exit)
	}
}

// TestStudyWorkerInvariance runs the benchmark's study command
// (benchmark/study.go: the full figure set at 6000 instructions, seed 1,
// over the benchmarks matching "2.") at 1, 2 and 4 workers. Every
// stdout must hash to the benchmark's pinned studyPinnedSeed1, read
// from that file, so parallel dispatch of one benchmark's lanes over
// the pool is held to the same bytes as the serial run. The goldens
// above pin -workers 1 only.
func TestStudyWorkerInvariance(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "study.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`const studyPinnedSeed1 = "([0-9a-f]{64})"`).FindSubmatch(src)
	if m == nil {
		t.Fatal("benchmark/study.go declares no studyPinnedSeed1")
	}
	for _, workers := range []string{"1", "2", "4"} {
		stdout, stderr, exit := run(t, "pipesweep", "-fig", "all", "-n", "6000", "-seed", "1",
			"-bench", "2.", "-json", "-workers", workers)
		if exit != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, exit, stderr)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stdout))); got != string(m[1]) {
			t.Errorf("-workers %s: study stdout hashes to %s, pinned %s", workers, got, m[1])
		}
	}
}

// TestPipesweepFigure6NeedsIntegerBench: Figure 6 sweeps the integer
// suite, so a -bench filter matching only floating-point benchmarks
// must not fall back to the full suite — -fig 6 is a usage error and
// -fig all runs the other figures with a note on stderr.
func TestPipesweepFigure6NeedsIntegerBench(t *testing.T) {
	_, stderr, exit := run(t, "pipesweep", "-fig", "6", "-bench", "171.swim", "-n", "2000")
	if exit != 2 || !strings.Contains(stderr, "matches no integer benchmark") {
		t.Errorf("-fig 6 -bench 171.swim: exit %d, stderr %q; want exit 2 naming the integer suite", exit, stderr)
	}
	stdout, stderr, exit := run(t, "pipesweep", "-fig", "all", "-bench", "171.swim", "-n", "2000")
	if exit != 0 {
		t.Fatalf("-fig all -bench 171.swim: exit %d, stderr %q", exit, stderr)
	}
	if strings.Contains(stdout, "Figure 6") || !strings.Contains(stdout, "Figure 5") {
		t.Errorf("-fig all -bench 171.swim printed Figure 6 or lost Figure 5:\n%s", stdout)
	}
	if !strings.Contains(stderr, "skipping Figure 6") {
		t.Errorf("-fig all -bench 171.swim: no skip note on stderr (%q)", stderr)
	}
}

// TestBadFlagExitsTwo pins the whole flag surface's error convention:
// an unknown flag is a usage error (exit 2) for every binary.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, name := range commands {
		_, stderr, exit := run(t, name, "-definitely-not-a-flag")
		if exit != 2 {
			t.Errorf("%s: unknown-flag exit = %d, want 2 (stderr %q)", name, exit, stderr)
		}
	}
}

func TestBadSimFlagValuesExitTwo(t *testing.T) {
	cases := [][]string{
		{"pipesweep", "-n", "0"},
		{"pipesweep", "-fig", "99"},
		{"traceinfo", "-workers", "-1"},
		{"segwin", "-bench", "no-such-benchmark"},
		{"sweepd", "-queue", "0"},
		{"sweepd", "-addr", ""},
		{"sweepd", "-slow-request", "-1s"},
		{"sweepd", "-debug-addr", "not-a-hostport"},
		{"benchdiff", "onlyone.txt"},
	}
	for _, c := range cases {
		_, stderr, exit := run(t, c[0], c[1:]...)
		if exit != 2 {
			t.Errorf("%v: exit = %d, want 2 (stderr %q)", c, exit, stderr)
		}
	}
}
