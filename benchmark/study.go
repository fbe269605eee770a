package main

// study-depth-sweep: the researcher's path. One client runs
// `pipesweep -fig all -workers 2` over two benchmarks, run after run.
// Every run generates its traces, decodes them, prewarms the caches and
// runs both core loops (in-order for Figures 4a/4b, out-of-order for
// 5/6) through pipeline.RunBatch on both executor workers; no HTTP,
// store or key hashing is involved.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// studyFilter is the study's -bench filter: 252.eon (integer) and
// 172.mgrid (floating point). The full sweep runs Figures 4a, 4b and 5
// on all 18 benchmarks and Figure 6 on the 9 integer ones; one integer
// and one floating-point benchmark keep that ratio, so each figure's
// share of a run stays close to the full sweep's. README.md compares the
// two runs' CPU profiles layer by layer.
const studyFilter = "2."

// studyPinnedSeed1 is the SHA-256 of a study run's stdout at seed 1: the
// study's oracle against the recorded results, beside the per-run
// identity check that holds at every seed.
const studyPinnedSeed1 = "09b8b2e05f7d8ec8dd79f54bed5714d817e2143cab9c4ec3b31675cd2c8be86b"

// studySetupReps is how many times setup_s regenerates the suite's
// traces; the median is reported.
const studySetupReps = 21

func studyProfiles() []trace.Profile { return experiments.MatchBenchmarks(studyFilter) }

// studyLanes counts the simulations of one run over ps: in-order lanes
// (Figures 4a and 4b) and out-of-order ones (Figure 5, and Figure 6's 7
// overheads on the integer benchmarks), 15 depths each.
func studyLanes(ps []trace.Profile) (inorder, ooo int) {
	g := len(core.PaperGrid())
	for _, p := range ps {
		inorder += 2 * g
		ooo += g
		if p.Group == trace.Integer {
			ooo += 7 * g
		}
	}
	return inorder, ooo
}

func studyArgs(seed uint64, n int, manifest string) []string {
	args := []string{"-fig", "all", "-n", strconv.Itoa(n), "-workers", "2",
		"-seed", strconv.FormatUint(seed, 10), "-bench", studyFilter, "-json"}
	if manifest != "" {
		args = append(args, "-manifest", manifest)
	}
	return args
}

// runStudyOp runs one pipesweep invocation, timing its first stdout
// byte and its exit, and digests its stdout.
func runStudyOp(ctx context.Context, bin string, args []string) opResult {
	o := opResult{kind: "study"}
	cmd := osexec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		o.err = err
		return o
	}
	o.start = time.Now()
	if err := cmd.Start(); err != nil {
		o.err = err
		return o
	}
	h := sha256.New()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := stdout.Read(buf)
		if n > 0 {
			if o.bytes == 0 {
				o.ttfl = time.Since(o.start)
			}
			o.bytes += n
			h.Write(buf[:n])
		}
		if rerr != nil {
			break
		}
	}
	werr := cmd.Wait()
	o.ttt = time.Since(o.start)
	h.Sum(o.digest[:0])
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.rssKB = ru.Maxrss
		o.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if werr != nil {
		o.err = fmt.Errorf("pipesweep %v: %v: %s", args, werr, stderr.Bytes())
	}
	return o
}

func (r *runner) runStudy() (*outcome, error) {
	bin := filepath.Join(r.bins, "pipesweep")

	// setup_s: the host time to generate the suite's 18 traces at the
	// run's n and seed, the set-up every full CLI sweep pays before it
	// simulates.
	var setup []float64
	for i := 0; i < studySetupReps; i++ {
		t0 := time.Now()
		for _, p := range trace.SPEC2000() {
			p.Generate(r.sizes.study, r.seed)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// Warm-up: one run, untimed. Its stdout is the reference every timed
	// run must reproduce byte for byte.
	out := &outcome{}
	warm := runStudyOp(r.ctx, bin, studyArgs(r.seed, r.sizes.study, ""))
	if warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	if got := hex.EncodeToString(warm.digest[:]); r.seed == 1 && r.sizes == benchSizes && got != studyPinnedSeed1 {
		out.problem("study output at seed 1 hashes to %s, pinned %s", got, studyPinnedSeed1)
	}

	if err := r.studyPhase(bin, warm.digest, setup, out, false); err != nil || !r.traced {
		return out, err
	}
	return out, r.studyPhase(bin, warm.digest, setup, out, true)
}

// studyPhase measures one phase of study runs. The traced phase also
// has every run write its manifest and derives the per-layer metrics.
func (r *runner) studyPhase(bin string, ref [32]byte, setup []float64, out *outcome, traced bool) error {
	manifest := func(k int) string { return "" }
	if traced {
		mdir := r.path("manifests")
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			return err
		}
		manifest = func(k int) string { return filepath.Join(mdir, fmt.Sprintf("run-%d.json", k)) }
	}
	inorder, ooo := studyLanes(studyProfiles())
	ph := r.closedLoop(1, func(_, k int) opResult {
		o := runStudyOp(r.ctx, bin, studyArgs(r.seed, r.sizes.study, manifest(k)))
		o.points = inorder + ooo
		if o.err == nil && o.digest != ref {
			o.err = fmt.Errorf("stdout differs from the warm-up run's")
		}
		return o
	}, nil)
	// A run's memory is the peak resident set of its process; the study's
	// is the median over its timed runs.
	var rss []float64
	for _, o := range ph.ops {
		out.attempted++
		if o.err != nil {
			out.fail(o, o.err)
			continue
		}
		if o.timed {
			rss = append(rss, float64(o.rssKB)/1024)
		}
	}
	e2e, samples, err := endToEnd(ph, setup, median(rss), len(rss))
	if err != nil {
		return err
	}
	if !traced {
		out.e2e, out.samples = e2e, samples
		return nil
	}
	out.tracedE2E = e2e
	return r.studyLayers(ph, manifest, out)
}

// studyLayers reads each traced run's manifest — the CLI's own
// telemetry — and derives the per-layer metrics, spans and layer table.
// The serving layers the CLI never reaches read 0.
func (r *runner) studyLayers(ph loadPhase, manifest func(k int) string, out *outcome) error {
	sl := newSpanLog()
	var wall, cpu, residual, spread, taskP50, imb, manifestKB []float64
	var bytesOut, qwTotal, qwCount float64
	counters := map[string]float64{}
	inorder, ooo := studyLanes(studyProfiles())
	for _, o := range ph.ops {
		if o.err != nil {
			continue
		}
		path := manifest(o.k)
		m, err := readManifest(path)
		if err != nil {
			return err
		}
		if n := m.Telemetry.Counters["simulations"]; n != int64(inorder+ooo) {
			out.problem("%s: run simulated %d points, want %d", path, n, inorder+ooo)
		}
		for k, v := range m.Telemetry.Counters {
			counters[k] += float64(v)
		}
		if fi, err := os.Stat(path); err == nil {
			manifestKB = append(manifestKB, float64(fi.Size())/1024)
		}
		w := time.Duration(m.WallMS * float64(time.Millisecond))
		wall = append(wall, m.WallMS)
		cpu = append(cpu, ms(o.cpu))
		residual = append(residual, ms(o.ttt-w))
		spread = append(spread, ms(o.ttt-o.ttfl))
		taskP50 = append(taskP50, m.Telemetry.Tasks.P50MS)
		imb = append(imb, imbalance(m.Telemetry.WorkerTasks))
		qwTotal += m.Telemetry.QueueWait.TotalMS
		qwCount += float64(m.Telemetry.QueueWait.Count)
		bytesOut += float64(o.bytes)

		// The manifest records durations only: the run's span is aligned
		// to end at process exit and its figures laid out in run order.
		end := o.start.Add(o.ttt)
		req := sl.add("client.request", -1, fmt.Sprintf("run-%d", o.k), o.start, end)
		runStart := end.Add(-w)
		run := sl.add("pipesweep.run", req, "", runStart, end)
		at := runStart
		for _, st := range m.Telemetry.Studies {
			d := time.Duration(st.WallMS * float64(time.Millisecond))
			sl.add("pipesweep."+st.Name, run, "", at, at.Add(d))
			at = at.Add(d)
		}
	}
	sims := counters["simulations"]
	v := map[string]float64{
		"core.trace_cache_misses":          counters["trace_cache_misses"],
		"core.sim_minstr_per_s":            sims * float64(r.sizes.study) / ph.total.Seconds() / 1e6,
		"pipeline.wakeup_scanned_per_wake": ratio(counters["wakeup_scanned"], counters["wakeup_wakes"]),
		"pipeline.batch_lanes_per_sim":     ratio(counters["batch_lanes"], sims),
		"serve.handler_ms_p50":             tailOrZero(wall, 0.5),
		"serve.handler_ms_p90":             tailOrZero(wall, 0.9),
		"serve.client_residual_ms_p50":     tailOrZero(residual, 0.5),
		"serve.stream_spread_ms_p50":       tailOrZero(spread, 0.5),
		"serve.queue_wait_ms_mean":         ratio(qwTotal, qwCount),
		"serve.stream_bytes_per_point":     ratio(bytesOut, sims),
		"serve.stats_body_kb":              median(manifestKB),
		"exec.task_p50_ms":                 median(taskP50),
		"exec.queue_wait_total_ms":         qwTotal,
		"exec.worker_imbalance":            median(imb),
	}
	for _, name := range []string{"serve.cache_hit_frac", "serve.dedup_join_frac", "serve.scrape_ms_p50",
		"serve.scrape_ms_p90", "serve.metrics_body_kb", "store.disk_hit_frac", "store.append_errors", "store.read_errors"} {
		v[name] = 0
	}

	// The probes run on the study's own inputs: its traces, and the
	// Figure 5 grid of each benchmark as a sweep body. The CLI serves no
	// response lines, so the marshal and store probes read 0.
	in := probeInput{profiles: studyProfiles(), n: r.sizes.study, seed: r.seed, codeVersion: serve.DefaultCodeVersion()}
	for _, p := range in.profiles {
		in.bodies = append(in.bodies, mustJSON(serve.SweepRequest{UsefulMin: 2, UsefulMax: 16,
			Benchmarks: []string{p.Name}, Instructions: in.n, Seed: r.seed}))
	}
	probes, err := runProbes(in, sl, r.work)
	if err != nil {
		return err
	}
	for k, x := range probes {
		v[k] = x
	}

	// The estimates are CPU time per run, compared with the run's CPU time
	// (both executor workers' share of it), not its wall time.
	n := float64(r.sizes.study)
	traces := float64(len(in.profiles))
	lanes := float64(inorder + ooo)
	est := []tableRow{
		{"trace.generate (one per benchmark)", traces * v["trace.generate_ms"]},
		{"trace.consumer_index (first build, one per benchmark)", traces * v["trace.consumer_index_ms"]},
		{"mem.prewarm (one per batch)", lanes / float64(len(core.PaperGrid())) * v["mem.prewarm_ms"]},
		{"mem.copy_state (one per lane)", lanes * v["mem.copy_state_us"] / 1000},
		{"pipeline in-order core loop (Fig 4a/4b lanes)", float64(inorder) * n * v["pipeline.inorder_ns_per_inst"] / 1e6},
		{"pipeline out-of-order core loop (Fig 5/6 lanes)", float64(ooo) * n * v["pipeline.run_batch_ns_per_inst"] / 1e6},
	}
	nops := float64(len(wall))
	cpuMean := mean(cpu)
	explained := 0.0
	for _, e := range est {
		explained += e.ms
	}
	v["residual.unexplained_ms_per_op"] = cpuMean - explained
	out.layers = v

	rows := []tableRow{
		{"client residual: exec, runtime start, exit (span self time)", selfMean(sl.spans, "client.request", nops)},
		{"pipesweep run (manifest wall)", mean(wall)},
		{"  outside the figure spans: flags, output, manifest (self time)", selfMean(sl.spans, "pipesweep.run", nops)},
	}
	for _, f := range []string{"figure4a", "figure4b", "figure5", "figure6"} {
		rows = append(rows, tableRow{"  " + f + " (study span self time)", selfMean(sl.spans, "pipesweep."+f, nops)})
	}
	rows = append(rows, tableRow{"pipesweep CPU time, user + system, both workers (rusage)", cpuMean})
	rows = append(rows, tableRow{"  estimated from the probes:", 0})
	for _, e := range est {
		rows = append(rows, tableRow{"    " + e.name, e.ms})
	}
	rows = append(rows, tableRow{"    unexplained: run CPU time − estimates", cpuMean - explained})
	return r.writeTrace(sl, rows, out)
}

func readManifest(path string) (obs.Manifest, error) {
	var m obs.Manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, m.Validate()
}
