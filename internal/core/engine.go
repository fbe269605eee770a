package core

// This file is the sweep engine: every study entry point in the package
// funnels its simulations through it. A study describes its grid —
// (clock point × benchmark) for the BIPS sweeps, (variant × benchmark)
// for the fixed-clock IPC studies — and the engine executes the whole
// grid on one deterministic worker pool (internal/exec), generating each
// benchmark trace at most once per process and sharing it read-only
// across workers. Aggregation always happens serially in benchmark
// order, so results are bit-for-bit identical at any worker count.

import (
	"sync"

	"repro/internal/config"
	"repro/internal/exec"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// pool builds the executor configuration for this sweep, wiring the
// sweep's recorder (when present) onto the executor's observation hooks.
func (c SweepConfig) pool() exec.Pool {
	p := exec.Pool{Workers: c.Workers, Ctx: c.Context}
	if c.Obs != nil {
		p.OnTaskStart = c.Obs.TaskStart
		p.OnTaskDone = c.Obs.TaskDone
	}
	return p
}

// cancelled reports whether the sweep's context has been cancelled.
func (c SweepConfig) cancelled() bool {
	return c.Context != nil && c.Context.Err() != nil
}

// simTask is one fully specified pipeline simulation.
type simTask struct {
	params pipeline.Params
	tr     *trace.Trace
}

// runSims executes the tasks on the sweep's worker pool, threading one
// reusable pipeline.Scratch per worker so the steady state of a study
// grid allocates nothing per simulation. Stats are slotted by task
// index, so the output never depends on completion order. On
// cancellation the unfinished slots hold zero Stats; callers check
// cancelled() before aggregating (a zero IPC would poison the harmonic
// means).
func runSims(cfg SweepConfig, tasks []simTask) []pipeline.Stats {
	cfg.Obs.Add("simulations", int64(len(tasks)))
	stats, _ := exec.MapWithState(cfg.pool(), tasks, pipeline.NewScratch,
		func(s *pipeline.Scratch, _ int, t simTask) pipeline.Stats {
			return pipeline.RunWith(t.params, t.tr, s)
		})
	recordEconomy(cfg, stats)
	return stats
}

// recordEconomy surfaces the simulator's work-sharing counters in the run
// manifest: wakes actually delivered through the consumer index versus
// the window entries the per-issue broadcast scan they replaced would
// have touched, and (on the batched path) the lanes that shared a
// prewarmed memory template and the instructions whose trace columns a
// lane after a batch's first reused.
func recordEconomy(cfg SweepConfig, stats []pipeline.Stats) {
	var wakes, scanned, lanes, shared uint64
	for i := range stats {
		wakes += stats[i].WakeupWakes
		scanned += stats[i].WakeupScanned
		lanes += stats[i].BatchLanes
		shared += stats[i].BatchSharedDecode
	}
	cfg.Obs.Add("wakeup_wakes", int64(wakes))
	cfg.Obs.Add("wakeup_scanned", int64(scanned))
	if lanes > 0 {
		cfg.Obs.Add("batch_lanes", int64(lanes))
		cfg.Obs.Add("batch_shared_decode", int64(shared))
	}
}

// batchState is one worker's scratch for the batched grid dispatch: the
// per-lane Scratch set plus a reusable params header, so a steady-state
// batch allocates only its result slice.
type batchState struct {
	bs     *pipeline.BatchScratch
	params []pipeline.Params
}

// runGrid simulates the full (params × traces) product and returns stats
// indexed [pi*len(traces)+ti], exactly like the flattened per-cell grid.
// On the batched path (the default) the grid is grouped by trace — one
// executor task per benchmark running every params lane through
// pipeline.RunBatch — so the depth-invariant per-benchmark work (the
// cache prewarm; the columns, predictor walk and consumer index come
// with the trace) happens once per benchmark instead of once per cell, and consecutive lanes keep that
// benchmark's shared arrays hot. Cell values are bit-for-bit identical
// to the per-cell path at any worker count; only the batch accounting
// counters (excluded from JSON) differ from an unbatched run.
func runGrid(cfg SweepConfig, params []pipeline.Params, traces []*trace.Trace) []pipeline.Stats {
	if cfg.DisableBatch {
		tasks := make([]simTask, 0, len(params)*len(traces))
		for _, p := range params {
			for _, tr := range traces {
				tasks = append(tasks, simTask{params: p, tr: tr})
			}
		}
		return runSims(cfg, tasks)
	}

	cfg.Obs.Add("simulations", int64(len(params)*len(traces)))
	batches, _ := exec.MapGroupsWithState(cfg.pool(), traceGroups(params, traces),
		func() *batchState { return &batchState{bs: pipeline.NewBatchScratch()} },
		func(st *batchState, _ int, group []simTask) []pipeline.Stats {
			ps := st.params[:0]
			for _, t := range group {
				ps = append(ps, t.params)
			}
			st.params = ps
			return pipeline.RunBatch(ps, group[0].tr, st.bs.Lanes(len(ps)))
		})

	stats := make([]pipeline.Stats, len(params)*len(traces))
	for ti := range traces {
		if batches[ti] == nil {
			continue // cancelled before this trace's batch ran
		}
		for pi := range params {
			stats[pi*len(traces)+ti] = batches[ti][pi]
		}
	}
	recordEconomy(cfg, stats)
	return stats
}

// traceGroups shapes the (params × traces) grid into one task group per
// trace, each group listing that benchmark's lanes in params order.
func traceGroups(params []pipeline.Params, traces []*trace.Trace) [][]simTask {
	groups := make([][]simTask, len(traces))
	cells := make([]simTask, len(params)*len(traces))
	for ti, tr := range traces {
		g := cells[ti*len(params) : (ti+1)*len(params) : (ti+1)*len(params)]
		for pi, p := range params {
			g[pi] = simTask{params: p, tr: tr}
		}
		groups[ti] = g
	}
	return groups
}

// traceKey identifies one generated trace. Profile is a comparable value
// type, so two custom profiles that share a name but differ in any
// parameter still get distinct cache entries.
type traceKey struct {
	profile      trace.Profile
	instructions int
	seed         uint64
}

// traceCache holds every trace generated so far, process-wide. The
// simulators never mutate a trace (see the contract in internal/trace),
// so one generation serves every study, worker and clock point that asks
// for the same (profile, instructions, seed).
var traceCache sync.Map // traceKey → *trace.Trace

// cachedTrace returns the (profile, instructions, seed) trace, generating
// and caching it process-wide on a miss. rec counts hits and misses.
// Two callers may race to generate the same trace; Generate is
// deterministic, so either result is identical and LoadOrStore just
// picks a canonical pointer. Either racer counts a miss: the generation
// work really happened twice.
func cachedTrace(p trace.Profile, instructions int, seed uint64, rec *obs.Recorder) *trace.Trace {
	key := traceKey{profile: p, instructions: instructions, seed: seed}
	if v, ok := traceCache.Load(key); ok {
		rec.Add("trace_cache_hits", 1)
		return v.(*trace.Trace)
	}
	rec.Add("trace_cache_misses", 1)
	v, _ := traceCache.LoadOrStore(key, p.Generate(instructions, seed))
	return v.(*trace.Trace)
}

// traces returns the benchmark traces for this sweep, generating missing
// ones in parallel on the sweep's worker pool and caching them for any
// later study in the process.
func (c SweepConfig) traces() []*trace.Trace {
	out, _ := exec.Map(c.pool(), c.Benchmarks, func(_ int, p trace.Profile) *trace.Trace {
		return cachedTrace(p, c.Instructions, c.Seed, c.Obs)
	})
	return out
}

// pointSpec describes one aggregate point of a BIPS study: a clock with
// its resolved timing, plus an optional parameter modification applied to
// every simulation of the point.
type pointSpec struct {
	useful float64
	clock  fo4.Clock
	freqHz float64
	timing config.Timing
	mod    func(*pipeline.Params)
}

// pointSpecFor resolves one clock point of this sweep.
func (c SweepConfig) pointSpecFor(useful float64, mod func(*pipeline.Params)) pointSpec {
	clk := fo4.Clock{Useful: useful, Overhead: c.Overhead}
	return pointSpec{
		useful: useful,
		clock:  clk,
		freqHz: clk.FrequencyHz(c.Tech),
		timing: c.Machine.Resolve(clk),
		mod:    mod,
	}
}

// runPoints simulates every (spec, benchmark) pair on the worker pool and
// folds each spec's stats into a SweepPoint. One flattened grid keeps the
// pool busy across point boundaries; per-point aggregation stays serial
// and in benchmark order, matching the old serial loop exactly.
func runPoints(cfg SweepConfig, specs []pointSpec, traces []*trace.Trace) []SweepPoint {
	specParams := make([]pipeline.Params, len(specs))
	for si, sp := range specs {
		p := pipeline.Params{Machine: cfg.Machine, Timing: sp.timing, Warmup: cfg.Warmup}
		if sp.mod != nil {
			sp.mod(&p)
		}
		specParams[si] = p
	}
	stats := runGrid(cfg, specParams, traces)

	points := make([]SweepPoint, len(specs))
	// Aggregation scratch, reused across specs: group membership is a
	// property of the trace list alone, so the per-group series only need
	// truncation between specs (the group array is indexed by trace.Group;
	// reading it in trace.Groups() order below keeps the fold order of the
	// historical map-based aggregation).
	var groups [3][]float64
	for g := range groups {
		groups[g] = make([]float64, 0, len(traces))
	}
	all := make([]float64, 0, len(traces))
	for si, sp := range specs {
		pt := SweepPoint{
			Useful:    sp.useful,
			Clock:     sp.clock,
			FreqHz:    sp.freqHz,
			GroupBIPS: map[trace.Group]float64{},
		}
		if cfg.cancelled() {
			points[si] = pt
			continue
		}
		for g := range groups {
			groups[g] = groups[g][:0]
		}
		all = all[:0]
		pt.PerBench = make([]BenchPoint, 0, len(traces))
		for ti, tr := range traces {
			s := stats[si*len(traces)+ti]
			b := metrics.BIPS(s.IPC, pt.FreqHz)
			pt.PerBench = append(pt.PerBench, BenchPoint{
				Name: tr.Name, Group: tr.Group, IPC: s.IPC, BIPS: b, Stats: s,
			})
			groups[tr.Group] = append(groups[tr.Group], b)
			all = append(all, b)
		}
		for _, g := range trace.Groups() {
			if xs := groups[g]; len(xs) > 0 {
				pt.GroupBIPS[g] = metrics.HarmonicMean(xs)
			}
		}
		pt.AllBIPS = metrics.HarmonicMean(all)
		points[si] = pt
	}
	return points
}

// runPoint evaluates one clock point; mod, when non-nil, may adjust the
// pipeline parameters (used by the loop and window experiments).
func runPoint(cfg SweepConfig, useful float64, traces []*trace.Trace, mod func(*pipeline.Params)) SweepPoint {
	return runPoints(cfg, []pointSpec{cfg.pointSpecFor(useful, mod)}, traces)[0]
}

// ipcPoint is one variant's harmonic-mean IPC across the suite — the
// aggregate the fixed-clock studies (Figures 8, 11, §4.5, §5.2) report.
type ipcPoint struct {
	groups map[trace.Group]float64
	all    float64
}

// runIPCVariants simulates every (variant, benchmark) pair on the worker
// pool from a shared base parameter set; mods[i] (nil allowed) adjusts
// the parameters of variant i. Aggregation is serial and in benchmark
// order, so the result matches a serial per-variant loop bit-for-bit.
func runIPCVariants(cfg SweepConfig, traces []*trace.Trace, base pipeline.Params, mods []func(*pipeline.Params)) []ipcPoint {
	variantParams := make([]pipeline.Params, len(mods))
	for mi, mod := range mods {
		p := base
		if mod != nil {
			mod(&p)
		}
		variantParams[mi] = p
	}
	stats := runGrid(cfg, variantParams, traces)

	out := make([]ipcPoint, len(mods))
	// Aggregation scratch, reused across variants exactly as in runPoints.
	var groups [3][]float64
	for g := range groups {
		groups[g] = make([]float64, 0, len(traces))
	}
	all := make([]float64, 0, len(traces))
	for mi := range mods {
		pt := ipcPoint{groups: map[trace.Group]float64{}}
		if cfg.cancelled() {
			out[mi] = pt
			continue
		}
		for g := range groups {
			groups[g] = groups[g][:0]
		}
		all = all[:0]
		for ti, tr := range traces {
			s := stats[mi*len(traces)+ti]
			groups[tr.Group] = append(groups[tr.Group], s.IPC)
			all = append(all, s.IPC)
		}
		for _, g := range trace.Groups() {
			if xs := groups[g]; len(xs) > 0 {
				pt.groups[g] = metrics.HarmonicMean(xs)
			}
		}
		pt.all = metrics.HarmonicMean(all)
		out[mi] = pt
	}
	return out
}
