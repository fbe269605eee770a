// Command benchmark is the repository's benchmark: four workloads over
// the real pipesweep and sweepd binaries, end-to-end metrics measured
// with tracing off, and a separate traced run that breaks each workload
// down by layer. See README.md for the workloads, the metrics and how to
// run it; run.sh builds and runs it from the repository root:
//
//	bash benchmark/run.sh --workload serve-warm-hits --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --seed 1
//	bash benchmark/run.sh --compare <checkoutA> <checkoutB> --workload all
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end ones, timings on the nominal
// host, or with --trace 1 the per-layer ones. The lines before it give
// every metric with its sample count and measured value, and the host
// prober's reading with the drift guard's.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clitest"
	"repro/internal/exec"
)

// metricDef names one reported metric, its unit and whether higher
// values are better; BENCHMARK.json lists the same (a test keeps the two
// in step).
type metricDef struct {
	name, unit   string
	higherBetter bool
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", false},
	{"points_per_s", "1/s", true},
	{"ttfl_p50_ms", "ms", false},
	{"ttt_p50_ms", "ms", false},
	{"ttt_p90_ms", "ms", false},
	{"rss_mb", "MB", false},
}

// timing reports whether the metric is a time or a rate per time, which
// moves with the host's speed.
func (d metricDef) timing() bool { return d.unit == "s" || d.unit == "ms" || d.unit == "1/s" }

// onNominalHost is end-to-end value v of metric d as it would read on
// the nominal host (host.go): a time divided by the run's host factor, a
// rate multiplied by it.
func onNominalHost(d metricDef, v, factor float64) float64 {
	switch {
	case !d.timing():
		return v
	case d.higherBetter:
		return v * factor
	}
	return v / factor
}

var perLayerMetrics = []metricDef{
	{"trace.generate_ms", "ms", false},
	{"trace.consumer_index_ms", "ms", false},
	{"mem.prewarm_ms", "ms", false},
	{"mem.copy_state_us", "us", false},
	{"pipeline.run_batch_ns_per_inst", "ns", false},
	{"pipeline.inorder_ns_per_inst", "ns", false},
	{"pipeline.run_with_ns_per_inst", "ns", false},
	{"pipeline.wakeup_scanned_per_wake", "ratio", true},
	{"pipeline.batch_lanes_per_sim", "ratio", true},
	{"core.simulate_batch_ms", "ms", false},
	{"core.key_us_per_point", "us", false},
	{"core.trace_cache_misses", "count", false},
	{"core.sim_minstr_per_s", "Minstr/s", true},
	{"serve.request_points_us", "us", false},
	{"serve.marshal_us_per_point", "us", false},
	{"serve.handler_ms_p50", "ms", false},
	{"serve.handler_ms_p90", "ms", false},
	{"serve.client_residual_ms_p50", "ms", false},
	{"serve.stream_spread_ms_p50", "ms", false},
	{"serve.queue_wait_ms_mean", "ms", false},
	{"serve.cache_hit_frac", "ratio", true},
	{"serve.dedup_join_frac", "ratio", true},
	{"serve.stream_bytes_per_point", "B", false},
	{"serve.scrape_ms_p50", "ms", false},
	{"serve.scrape_ms_p90", "ms", false},
	{"serve.stats_body_kb", "KiB", false},
	{"serve.metrics_body_kb", "KiB", false},
	{"exec.task_p50_ms", "ms", false},
	{"exec.queue_wait_total_ms", "ms", false},
	{"exec.worker_imbalance", "ratio", false},
	{"store.memory_get_us", "us", false},
	{"store.put_us", "us", false},
	{"store.open_replay_ms", "ms", false},
	{"store.replay_us_per_record", "us", false},
	{"store.get_disk_us", "us", false},
	{"store.disk_hit_frac", "ratio", false},
	{"store.append_errors", "count", false},
	{"store.read_errors", "count", false},
	{"residual.unexplained_ms_per_op", "ms", false},
}

// workloads maps each workload name to the function that runs it.
var workloads = []struct {
	name string
	run  func(r *runner) (*outcome, error)
}{
	{"study-depth-sweep", (*runner).runStudy},
	{"serve-cold-grid", func(r *runner) (*outcome, error) { return r.runServe(coldGrid) }},
	{"serve-warm-hits", func(r *runner) (*outcome, error) { return r.runServe(warmHits) }},
	{"serve-disk-mixed", func(r *runner) (*outcome, error) { return r.runServe(diskMixed) }},
}

// runner is one workload run's environment.
type runner struct {
	ctx        context.Context
	name       string
	seed       uint64
	seconds    time.Duration // a phase's timed part, at least
	warmup     time.Duration // a phase's untimed start
	minSamples int           // timed requests a phase collects at least
	sizes      sizes
	traced     bool
	bins       string // holds the built pipesweep and sweepd
	work       string // this run's scratch directory, removed afterwards
	traceDir   string
}

func (r *runner) path(name string) string { return filepath.Join(r.work, name) }

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string // run-level oracle failures

	e2e       map[string]float64 // untraced end-to-end metrics
	samples   map[string]int     // samples behind each end-to-end metric
	tracedE2E map[string]float64 // the same, measured in the traced phase
	layers    map[string]float64 // traced run only
}

func (o *outcome) fail(op opResult, err error) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "failed op (client %d, #%d, %s): %v\n", op.client, op.k, op.kind, err)
	}
}

func (o *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Fprintln(os.Stderr, "oracle:", msg)
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// endToEnd computes the end-to-end metrics of one phase from its timed
// requests. Failed requests count in failed, not in the latencies.
// rssMB is the memory the workload held, as a median over rssSamples.
func endToEnd(ph loadPhase, setup []float64, rssMB float64, rssSamples int) (map[string]float64, map[string]int, error) {
	var ttfl, ttt []float64
	var perWindow [windows]float64
	win := ph.elapsed / windows
	for _, o := range ph.ops {
		if !o.timed || !o.sample() || o.err != nil {
			continue
		}
		ttfl = append(ttfl, ms(o.ttfl))
		ttt = append(ttt, ms(o.ttt))
		w := min(int(o.start.Add(o.ttt).Sub(ph.timedAt)/win), windows-1)
		perWindow[w] += float64(o.points)
	}
	for i := range perWindow {
		perWindow[i] /= win.Seconds()
	}
	v := map[string]float64{
		"setup_s":      median(setup),
		"points_per_s": median(perWindow[:]),
		"rss_mb":       rssMB,
	}
	n := map[string]int{"setup_s": len(setup), "points_per_s": windows, "rss_mb": rssSamples}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"ttfl_p50_ms", ttfl, 0.5}, {"ttt_p50_ms", ttt, 0.5}, {"ttt_p90_ms", ttt, 0.9},
	} {
		x, err := percentile(p.xs, p.q)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p.name, err)
		}
		v[p.name], n[p.name] = x, len(p.xs)
	}
	return v, n, nil
}

// tableRow is one line of a traced run's per-op layer table.
type tableRow struct {
	name string
	ms   float64
}

// writeTrace writes the traced run's spans.json and layers.txt and
// prints the table to stderr.
func (r *runner) writeTrace(sl *spanLog, rows []tableRow, out *outcome) error {
	dir := filepath.Join(r.traceDir, r.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := sl.write(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: layer self time per op (traced phase, seed %d)\n", r.name, r.seed)
	for _, row := range rows {
		if strings.HasSuffix(row.name, ":") {
			fmt.Fprintf(&b, "  %s\n", row.name)
			continue
		}
		fmt.Fprintf(&b, "  %-66s %10.3f ms\n", row.name, row.ms)
	}
	fmt.Fprintf(&b, "\nend to end, untraced vs traced phase (how much worse traced reads = tracing overhead):\n")
	for _, m := range endToEndMetrics {
		if m.name == "setup_s" {
			continue
		}
		u, t := out.e2e[m.name], out.tracedE2E[m.name]
		worse := ratio(t-u, u)
		if m.higherBetter {
			worse = -worse
		}
		fmt.Fprintf(&b, "  %-14s %12.4g %12.4g %-4s overhead %+.1f%%\n", m.name, u, t, m.unit, 100*worse)
	}
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricLine is one (workload, metric) line printed before the result:
// the value reported, and for a timing the value measured.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Measured float64 `json:"measured,omitempty"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples,omitempty"`
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		name     = flag.String("workload", "", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "seed every request stream and trace is generated from")
		seconds  = flag.Float64("seconds", 25, "length of each measured phase; a phase also runs until 100 timed requests have completed")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans.json and layers.txt instead of the end-to-end metrics")
		traceDir = flag.String("trace-dir", "", "where a traced run writes spans.json and layers.txt (default <build dir>/trace)")
		compare  = flag.String("compare", "", "A/B mode: -compare <checkoutA> <checkoutB> runs both checkouts' benchmarks, alternating")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *compare != "" {
		// Flag parsing stops at checkoutB; the flags after it parse now.
		var checkoutB string
		if flag.NArg() > 0 {
			checkoutB = flag.Arg(0)
			if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
				return 2
			}
		}
		if checkoutB == "" || flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: -compare <checkoutA> <checkoutB> [-workload w] [-seconds s]")
			return 2
		}
		if err := runCompare(ctx, *compare, checkoutB, *name, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		return 2
	}

	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown -workload %q; use all or one of %s\n", *name, workloadNames())
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	build := buildDir(root)
	if *traceDir == "" {
		*traceDir = filepath.Join(build, "trace")
	}
	// Build time is excluded from every metric: the binaries are built
	// once, before any workload starts.
	bins := filepath.Join(build, "bin")
	if err := clitest.BuildCmds(root, bins, "./cmd/pipesweep", "./cmd/sweepd"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	probe := newHostProbe()
	code := 0
	for _, i := range selected {
		w := workloads[i]
		work, err := os.MkdirTemp(build, "work-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		r := &runner{ctx: ctx, name: w.name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			warmup: phaseWarmup, minSamples: minSamples, sizes: benchSizes, traced: *trace == 1, bins: bins, work: work, traceDir: *traceDir}
		out, samples, err := runWatched(w.run, r, probe)
		os.RemoveAll(work)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		var host hostReading
		if err == nil {
			host, err = readHost(w.name, samples)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 2
		}
		if !out.correct() {
			code = 1
		}
		if err := report(os.Stdout, r, out, host); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	return code
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// buildDir is where builds and runs leave their files: $CARGO_TARGET_DIR
// when set, else .bench_build, relative to the checkout's root.
func buildDir(root string) string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if !filepath.IsAbs(d) {
		d = filepath.Join(root, d)
	}
	return d
}

// runWatched runs one workload with the host prober beside it, as the
// two items of one exec.Map, and returns the prober's readings.
func runWatched(run func(*runner) (*outcome, error), r *runner, probe *hostProbe) (*outcome, []hostSample, error) {
	type done struct {
		out     *outcome
		samples []hostSample
		err     error
	}
	var finished atomic.Bool
	res, _ := exec.Map(exec.Pool{Workers: 2}, []bool{false, true}, func(_ int, prober bool) done {
		if prober {
			samples, err := probe.watch(&finished)
			return done{samples: samples, err: err}
		}
		defer finished.Store(true)
		out, err := run(r)
		return done{out: out, err: err}
	})
	return res[0].out, res[1].samples, errors.Join(res[0].err, res[1].err)
}

// report prints every metric of the run with its unit and sample count,
// the host prober's reading, and last the result line.
func report(w io.Writer, r *runner, out *outcome, host hostReading) error {
	enc := json.NewEncoder(w)
	defs, values := endToEndMetrics, out.e2e
	if r.traced {
		defs, values = perLayerMetrics, out.layers
	}
	res := result{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.name, d.name)
		}
		line := metricLine{Workload: r.name, Metric: d.name, Value: v, Unit: d.unit, Samples: out.samples[d.name]}
		if !r.traced && d.timing() {
			line.Value, line.Measured = onNominalHost(d, v, host.Factor), v
		}
		res.Metrics[d.name] = metric{Value: line.Value, Unit: d.unit}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := enc.Encode(host); err != nil {
		return err
	}
	if res.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	return enc.Encode(res)
}
