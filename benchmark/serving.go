package main

// The three sweepd workloads. Each boots the real daemon (memory-only,
// or over a durable store), drives it with the closed-loop clients and
// then checks the outputs: per-response oracles as lines arrive, and
// after the phase byte identity of every key across the run, the
// expected keys of a seeded sample of requests, the daemon's simulation
// count, and an in-process re-simulation of a seeded sample of served
// points.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/clitest"
	"repro/internal/core"
	"repro/internal/serve"
)

// setupBoots is how many times a serving workload boots the daemon to
// measure setup_s; the median is reported.
const setupBoots = 21

// daemonLimits are sweepd's default request limits, under which every
// generated body must expand.
var daemonLimits = serve.Limits{MaxPoints: 1024, MaxInstructions: 1_000_000}

// serveWorkload describes one sweepd workload.
type serveWorkload struct {
	// durable runs the daemon over a store that a first, untimed
	// incarnation prefills; setup_s then includes segment replay.
	durable bool
	args    []string // sweepd flags beyond the address and workers

	// n is the instruction count of the traces the reads and cold
	// requests use, which the in-process probes reproduce.
	n func(sizes) int

	// prefill runs untimed before measuring: in every incarnation of a
	// memory-only daemon, once before the first boot for a durable one.
	prefill func(r *runner, c *httpClient) error

	// op performs client ci's k-th op of the given phase (0 = untraced,
	// 1 = traced); id is the X-Request-Id to send, "" when untraced.
	op func(r *runner, c *httpClient, ci, k, phase int, id string) opResult

	// simulates reports whether a successful op's points all had to be
	// simulated (true) or were all served from the result store (false).
	simulates func(o opResult) bool
}

var (
	coldGrid = serveWorkload{
		n: func(s sizes) int { return s.cold },
		prefill: func(r *runner, c *httpClient) error {
			for _, body := range coldWarmup(r.seed, r.sizes.cold) {
				if o := c.sweep(mustJSON(body), ""); o.err != nil {
					return fmt.Errorf("warm-up: %w", o.err)
				}
			}
			return nil
		},
		op: func(r *runner, c *httpClient, ci, k, _ int, id string) opResult {
			return c.sweep(mustJSON(coldBody(r.seed, uint64(2*k+ci+1), r.sizes.cold)), id)
		},
		simulates: func(opResult) bool { return true },
	}

	warmHits = serveWorkload{
		n:       func(s sizes) int { return s.grid },
		prefill: prefillGrid,
		op: func(r *runner, c *httpClient, ci, k, _ int, id string) opResult {
			switch {
			case k%10 == 9 && (k/10)%2 == 0:
				return c.scrape("/stats", id)
			case k%10 == 9:
				return c.scrape("/metrics", id)
			}
			return c.sweep(mustJSON(subgridBody(r.seed, uint64(ci), uint64(k), r.sizes.grid)), id)
		},
		simulates: func(opResult) bool { return false },
	}

	diskMixed = serveWorkload{
		durable: true,
		args:    []string{"-cache", "64"},
		n:       func(s sizes) int { return s.grid },
		prefill: prefillGrid,
		op: func(r *runner, c *httpClient, ci, k, phase int, id string) opResult {
			// Every fifth op writes. Writes are the slow fifth of the
			// requests, so the p90 falls among them and the p50 among the
			// reads, never on the boundary between the two.
			if k%5 == 4 {
				// The traced phase boots over the store the untraced one
				// wrote to, so its writes come from a disjoint range.
				w := uint64(k/5 + phase*100000)
				o := c.sweep(mustJSON(writeBody(r.seed, uint64(ci), w, r.sizes.write)), id)
				o.kind = "write"
				return o
			}
			return c.sweep(mustJSON(subgridBody(r.seed, uint64(ci), uint64(k), r.sizes.grid)), id)
		},
		simulates: func(o opResult) bool { return o.kind == "write" },
	}
)

func prefillGrid(r *runner, c *httpClient) error {
	if o := c.sweep(mustJSON(paperGrid(r.seed, r.sizes.grid)), ""); o.err != nil {
		return fmt.Errorf("prefill: %w", o.err)
	}
	return nil
}

// servePhase is one measured phase against one daemon incarnation.
type servePhase struct {
	loadPhase
	before, after snapshot
	rssMB         float64
	rssSamples    int
	codeVersion   string

	served map[string][]byte            // every key's line
	opts   map[string]core.PointOptions // every served key's point
}

func (r *runner) runServe(w serveWorkload) (*outcome, error) {
	bin := filepath.Join(r.bins, "sweepd")
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, w.args...)
	if w.durable {
		args = append(args, "-store", filepath.Join(r.work, "store"))
		d, _, err := boot(bin, r.path("prefill.log"), args...)
		if err != nil {
			return nil, err
		}
		c := newHTTPClient(d.URL)
		err = w.prefill(r, c)
		c.close()
		if serr := stop(d); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}

	var d *clitest.Daemon
	defer func() { stop(d) }()
	var setup []float64
	for i := 0; i < setupBoots; i++ {
		if err := stop(d); err != nil {
			return nil, err
		}
		var dur time.Duration
		var err error
		if d, dur, err = boot(bin, r.path("sweepd.log"), args...); err != nil {
			return nil, err
		}
		setup = append(setup, dur.Seconds())
	}

	out := &outcome{}
	ph, err := r.servePhase(d, w, 0, out)
	if err != nil {
		return nil, err
	}
	if out.e2e, out.samples, err = endToEnd(ph.loadPhase, setup, ph.rssMB, ph.rssSamples); err != nil {
		return nil, err
	}
	if !r.traced {
		return out, nil
	}

	// The traced run: a fresh incarnation with the access log on (-v),
	// requests tagged with X-Request-Id, then the in-process probes.
	if err := stop(d); err != nil {
		return nil, err
	}
	logPath := r.path("traced.log")
	if d, _, err = boot(bin, logPath, append(args, "-v")...); err != nil {
		return nil, err
	}
	tp, err := r.servePhase(d, w, 1, out)
	if err != nil {
		return nil, err
	}
	if err := stop(d); err != nil {
		return nil, err
	}
	if out.tracedE2E, _, err = endToEnd(tp.loadPhase, setup, tp.rssMB, tp.rssSamples); err != nil {
		return nil, err
	}
	handler, err := accessLog(logPath)
	if err != nil {
		return nil, err
	}

	in := probeInput{n: w.n(r.sizes), seed: r.seed, served: tp.served, codeVersion: tp.codeVersion}
	for _, o := range tp.ops {
		if o.sample() && o.err == nil && len(in.bodies) < 256 {
			in.bodies = append(in.bodies, o.body)
		}
	}
	if w.durable {
		// The store probes run on a copy of the workload's own store.
		in.storeDir = r.path("probe-store")
		if err := copyDir(filepath.Join(r.work, "store"), in.storeDir); err != nil {
			return nil, err
		}
	}
	return out, r.serveLayers(w, tp, handler, in, out)
}

// servePhase prefills a memory-only daemon, measures one phase and runs
// the oracles over it, counting into out.
func (r *runner) servePhase(d *clitest.Daemon, w serveWorkload, phase int, out *outcome) (*servePhase, error) {
	cs := make([]*httpClient, clients)
	for i := range cs {
		cs[i] = newHTTPClient(d.URL)
		defer cs[i].close()
	}
	if !w.durable {
		if err := w.prefill(r, cs[0]); err != nil {
			return nil, err
		}
	}
	ph := &servePhase{}
	var err error
	if ph.before, err = takeSnapshot(cs[0]); err != nil {
		return nil, err
	}
	if ph.codeVersion, err = codeVersion(ph.before.metricBody); err != nil {
		return nil, err
	}
	// The daemon's memory is its resident set through the timed part, the
	// median of the watcher's samples. Its high-water mark would be set by
	// the untimed prefill, which simulates the grid and then releases what
	// it allocated, and read 70 to 140 MB from run to run on serve-warm-hits
	// while the resident set through the phase stayed within a few MB.
	var rss []float64
	var rssErr error
	ph.loadPhase = r.closedLoop(clients, func(ci, k int) opResult {
		id := ""
		if phase == 1 {
			id = fmt.Sprintf("c%d-%d", ci, k)
		}
		return w.op(r, cs[ci], ci, k, phase, id)
	}, func() {
		mb, err := residentMB(d.Cmd.Process.Pid)
		if err != nil {
			rssErr = err
			return
		}
		rss = append(rss, mb)
	})
	if rssErr == nil && len(rss) == 0 {
		rssErr = fmt.Errorf("no resident-set sample of sweepd during the phase")
	}
	if rssErr != nil {
		return nil, rssErr
	}
	ph.rssMB, ph.rssSamples = median(rss), len(rss)
	if ph.after, err = takeSnapshot(cs[0]); err != nil {
		return nil, err
	}
	ph.served = map[string][]byte{}
	for _, c := range cs {
		for k, line := range c.seen {
			if prev, ok := ph.served[k]; ok && string(prev) != string(line) {
				out.problem("key %s served with different bytes to different clients", k)
			}
			ph.served[k] = line
		}
	}
	r.verifyServe(w, ph, out)
	return ph, nil
}

// expandChecks is how many requests of a phase the expected-keys oracle
// expands. Expansion hashes a key per point, so a warm phase's tens of
// thousands of requests are checked on a seeded sample; every response
// has already passed the per-line checks.
const expandChecks = 1000

// verifyServe runs the post-phase oracles: requests streamed exactly the
// keys their bodies expand to, the daemon simulated exactly the points
// that should have missed, and a seeded sample of served points
// re-simulates to identical results.
func (r *runner) verifyServe(w serveWorkload, ph *servePhase, out *outcome) {
	var reqs []int
	for i, o := range ph.ops {
		if o.err == nil && o.sample() {
			reqs = append(reqs, i)
		}
	}
	rg := newRNG(r.seed, streamSample, uint64(len(reqs)))
	for i := len(reqs) - 1; i > 0; i-- {
		j := rg.intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	expand := map[int]bool{}
	for _, i := range reqs[:min(len(reqs), expandChecks)] {
		expand[i] = true
	}

	ph.opts = map[string]core.PointOptions{}
	var wantSims int64
	for i, o := range ph.ops {
		out.attempted++
		if o.err != nil {
			out.fail(o, o.err)
			continue
		}
		if w.simulates(o) {
			wantSims += int64(o.points)
		}
		if !expand[i] {
			continue
		}
		var req serve.SweepRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			out.fail(o, err)
			continue
		}
		pts, keys, err := req.Points(ph.codeVersion, daemonLimits)
		if err != nil {
			out.fail(o, err)
			continue
		}
		if keysDigest(keys) != o.digest {
			out.fail(o, fmt.Errorf("streamed keys differ from the %d the body expands to", len(keys)))
			continue
		}
		for i, k := range keys {
			ph.opts[k] = pts[i]
		}
	}
	if got := ph.after.counter("simulations") - ph.before.counter("simulations"); got != wantSims {
		out.problem("daemon ran %d simulations during the phase, want %d", got, wantSims)
	}
	checked, problems := resimulate(r.seed, ph.served, ph.opts)
	for _, p := range problems {
		out.problem("%s", p)
	}
	fmt.Fprintf(os.Stderr, "%s: expanded %d of %d requests; re-simulated %d of %d served points in-process\n",
		r.name, len(expand), len(reqs), checked, len(ph.served))
}

// resimulate re-runs a seeded 2% sample (at least one) of the served
// points through core.SimulateBatch and checks each point's ipc and
// stats equal what the daemon served.
func resimulate(seed uint64, served map[string][]byte, opts map[string]core.PointOptions) (int, []string) {
	keys := make([]string, 0, len(served))
	for k := range served {
		if _, ok := opts[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	rg := newRNG(seed, streamSample)
	for i := len(keys) - 1; i > 0; i-- {
		j := rg.intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	n := int(math.Ceil(float64(len(keys)) * 0.02))
	sample := keys[:n]

	// SimulateBatch shares one trace per call, so group by trace identity.
	type ident struct {
		bench string
		n     int
		seed  uint64
	}
	groups := map[ident][]string{}
	var order []ident
	for _, k := range sample {
		o := opts[k].Normalize()
		id := ident{o.Benchmark, o.Instructions, o.Seed}
		if _, ok := groups[id]; !ok {
			order = append(order, id)
		}
		groups[id] = append(groups[id], k)
	}
	var problems []string
	for _, id := range order {
		ks := groups[id]
		batch := make([]core.PointOptions, len(ks))
		for i, k := range ks {
			batch[i] = opts[k]
		}
		res, err := core.SimulateBatch(batch, nil, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("re-simulating %v: %v", id, err))
			continue
		}
		for i, k := range ks {
			var pr serve.PointResult
			if err := json.Unmarshal(served[k], &pr); err != nil {
				problems = append(problems, fmt.Sprintf("served line for %s: %v", k, err))
				continue
			}
			st := res[i].Stats
			st.BatchLanes, st.BatchSharedDecode = 0, 0 // batch accounting, never on the wire
			if pr.IPC != res[i].IPC || pr.Stats != st {
				problems = append(problems, fmt.Sprintf("point %s: served ipc %v stats %+v, re-simulated ipc %v stats %+v",
					k, pr.IPC, pr.Stats, res[i].IPC, st))
			}
		}
	}
	return n, problems
}

// serveLayers derives the traced run's per-layer metrics, spans and
// layer table from the traced phase, the access log and the probes.
func (r *runner) serveLayers(w serveWorkload, tp *servePhase, handler map[string]time.Duration, in probeInput, out *outcome) error {
	sl := newSpanLog()
	v := map[string]float64{}
	var hms, residual, spread, scrapes, statsKB, metricsKB []float64
	var nreq, bytesOut, points, simInstr, simReqs float64
	for _, o := range tp.ops {
		if o.err != nil {
			continue
		}
		switch o.kind {
		case "stats":
			statsKB = append(statsKB, float64(o.bytes)/1024)
			scrapes = append(scrapes, ms(o.ttt))
			continue
		case "metrics":
			metricsKB = append(metricsKB, float64(o.bytes)/1024)
			scrapes = append(scrapes, ms(o.ttt))
			continue
		}
		nreq++
		spread = append(spread, ms(o.ttt-o.ttfl))
		bytesOut += float64(o.bytes)
		points += float64(o.points)
		if w.simulates(o) {
			var req serve.SweepRequest
			if json.Unmarshal(o.body, &req) == nil {
				simInstr += float64(o.points * req.Instructions)
			}
			simReqs++
		}
		end := o.start.Add(o.ttt)
		parent := sl.add("client.request", -1, o.id, o.start, end)
		if h, ok := handler[o.id]; ok {
			hms = append(hms, ms(h))
			residual = append(residual, ms(o.ttt-h))
			// The access log records only the handler's duration; the span
			// is aligned to end as the trailer arrives.
			sl.add("sweepd.handler", parent, o.id, end.Add(-h), end)
		}
	}
	if float64(len(hms)) < nreq {
		out.problem("access log joined %d of %.0f traced requests by X-Request-Id", len(hms), nreq)
	}
	if len(statsKB) == 0 {
		statsKB = []float64{float64(len(tp.after.statsBody)) / 1024}
	}
	if len(metricsKB) == 0 {
		metricsKB = []float64{float64(len(tp.after.metricBody)) / 1024}
	}
	b, a := tp.before, tp.after
	delta := func(name string) float64 { return float64(a.counter(name) - b.counter(name)) }
	hits := float64(a.stats.CacheHits - b.stats.CacheHits)
	misses := float64(a.stats.CacheMisses - b.stats.CacheMisses)
	sims := delta("simulations")
	tasks := float64(a.stats.Telemetry.Tasks.Count - b.stats.Telemetry.Tasks.Count)
	qsum := promValue(a.metricBody, "sweep_queue_wait_seconds_sum") - promValue(b.metricBody, "sweep_queue_wait_seconds_sum")
	qn := promValue(a.metricBody, "sweep_queue_wait_seconds_count") - promValue(b.metricBody, "sweep_queue_wait_seconds_count")

	v["core.trace_cache_misses"] = delta("trace_cache_misses")
	v["core.sim_minstr_per_s"] = simInstr / tp.total.Seconds() / 1e6
	v["pipeline.wakeup_scanned_per_wake"] = ratio(delta("wakeup_scanned"), delta("wakeup_wakes"))
	v["pipeline.batch_lanes_per_sim"] = ratio(sims, tasks)
	v["serve.handler_ms_p50"] = tailOrZero(hms, 0.5)
	v["serve.handler_ms_p90"] = tailOrZero(hms, 0.9)
	v["serve.client_residual_ms_p50"] = tailOrZero(residual, 0.5)
	v["serve.stream_spread_ms_p50"] = tailOrZero(spread, 0.5)
	v["serve.queue_wait_ms_mean"] = 1000 * ratio(qsum, qn)
	v["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	v["serve.dedup_join_frac"] = ratio(float64(a.stats.DedupJoins-b.stats.DedupJoins), hits+misses)
	v["serve.stream_bytes_per_point"] = ratio(bytesOut, points)
	v["serve.scrape_ms_p50"] = tailOrZero(scrapes, 0.5)
	v["serve.scrape_ms_p90"] = tailOrZero(scrapes, 0.9)
	v["serve.stats_body_kb"] = median(statsKB)
	v["serve.metrics_body_kb"] = median(metricsKB)
	v["exec.task_p50_ms"] = a.stats.Telemetry.Tasks.P50MS
	v["exec.queue_wait_total_ms"] = a.stats.Telemetry.QueueWait.TotalMS - b.stats.Telemetry.QueueWait.TotalMS
	v["exec.worker_imbalance"] = imbalance(a.stats.Telemetry.WorkerTasks)
	v["store.disk_hit_frac"] = ratio(float64(a.stats.DiskHits-b.stats.DiskHits), hits)
	v["store.append_errors"] = float64(a.stats.StoreAppendErrors)
	v["store.read_errors"] = float64(a.stats.StoreReadErrors)

	probes, err := runProbes(in, sl, r.work)
	if err != nil {
		return err
	}
	for k, x := range probes {
		v[k] = x
	}

	// Per-request layer estimates inside the handler, from the probes.
	nsPerInst := v["pipeline.run_with_ns_per_inst"]
	if v["pipeline.batch_lanes_per_sim"] > 1 {
		nsPerInst = v["pipeline.run_batch_ns_per_inst"]
	}
	diskFrac := v["store.disk_hit_frac"]
	// Generation time grows with trace length; the probe generated
	// traces of in.n instructions.
	genScale := ratio(simInstr, sims) / float64(in.n)
	est := []tableRow{
		{"serve.request_points (decode, expand, key)", v["serve.request_points_us"] / 1000},
		{"store get (memory or disk)", hits / nreq * ((1-diskFrac)*v["store.memory_get_us"] + diskFrac*v["store.get_disk_us"]) / 1000},
		{"trace.generate (trace-cache misses)", v["core.trace_cache_misses"] / nreq * v["trace.generate_ms"] * genScale},
		{"pipeline core loop", simInstr / nreq * nsPerInst / 1e6},
		{"serve.queue_wait (requests that simulate)", simReqs / nreq * v["serve.queue_wait_ms_mean"]},
		{"serve.marshal", sims / nreq * v["serve.marshal_us_per_point"] / 1000},
	}
	hmean := mean(hms)
	explained := 0.0
	for _, e := range est {
		explained += e.ms
	}
	v["residual.unexplained_ms_per_op"] = hmean - explained
	out.layers = v

	rows := []tableRow{
		{"client residual: TTT − handler (span self time)", selfMean(sl.spans, "client.request", nreq)},
		{"sweepd handler (access-log duration)", hmean},
	}
	for _, e := range est {
		rows = append(rows, tableRow{"  " + e.name, e.ms})
	}
	rows = append(rows, tableRow{"  unexplained: HTTP stack, stream writes, locking, GC", hmean - explained})
	return r.writeTrace(sl, rows, out)
}

// tailOrZero is the p-quantile when the sample supports it, else 0 (a
// layer this workload does not reach, or reaches too rarely to report).
func tailOrZero(xs []float64, p float64) float64 {
	x, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return x
}

// imbalance is max/min tasks per executor worker.
func imbalance(perWorker map[string]int64) float64 {
	if len(perWorker) == 0 {
		return 0
	}
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, n := range perWorker {
		lo, hi = min(lo, n), max(hi, n)
	}
	return ratio(float64(hi), float64(lo))
}

func keysDigest(keys []string) [32]byte {
	return sha256.Sum256([]byte(strings.Join(keys, "")))
}
