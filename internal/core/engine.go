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
	"fmt"
	"sync"
	"sync/atomic"

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

// cell is one (params, trace) cell of a study grid, by index.
type cell struct{ pi, ti int }

// cellStats is one simulated cell plus the prewarms its worker's Scratch
// did for it (telemetry only).
type cellStats struct {
	st       pipeline.Stats
	prewarms uint64
}

// runGrid simulates the full (params × traces) product and returns stats
// indexed [pi*len(traces)+ti]. Every cell is its own executor task, so
// a grid of one benchmark still spreads over the whole pool. Tasks run
// trace-major, each trace's cells in pipeline.GeometryOrder, and each
// worker threads one reusable pipeline.Scratch through its tasks: the
// Scratch re-prewarms its memory template only when the trace or the
// geometry changes, so a worker taking consecutive cells of one
// benchmark shares one prewarm walk. A cell's Stats never depend on
// which worker ran it or what ran before, so results are bit-for-bit
// identical at any worker count.
func runGrid(cfg SweepConfig, params []pipeline.Params, traces []*trace.Trace) []pipeline.Stats {
	order := pipeline.GeometryOrder(params)
	cells := make([]cell, 0, len(params)*len(traces))
	for ti := range traces {
		for _, pi := range order {
			cells = append(cells, cell{pi: pi, ti: ti})
		}
	}
	cfg.Obs.Add("simulations", int64(len(cells)))
	out, _ := exec.MapWithState(cfg.pool(), cells, pipeline.NewScratch,
		func(s *pipeline.Scratch, _ int, c cell) cellStats {
			before := s.Prewarms()
			st := pipeline.RunWith(params[c.pi], traces[c.ti], s)
			return cellStats{st: st, prewarms: s.Prewarms() - before}
		})

	// On cancellation the unfinished slots hold zero Stats; callers check
	// cancelled() before aggregating (a zero IPC would poison the
	// harmonic means).
	stats := make([]pipeline.Stats, len(cells))
	var wakes, scanned, prewarms uint64
	for k, c := range cells {
		st := out[k].st
		stats[c.pi*len(traces)+c.ti] = st
		wakes += st.WakeupWakes
		scanned += st.WakeupScanned
		prewarms += out[k].prewarms
	}
	// The simulator's work-sharing economy, for the run manifest: wakes
	// delivered through the waiter lists versus the window entries a
	// per-issue broadcast scan would have touched, and the memory
	// template prewarms the workers' Scratches did for the grid.
	cfg.Obs.Add("wakeup_wakes", int64(wakes))
	cfg.Obs.Add("wakeup_scanned", int64(scanned))
	cfg.Obs.Add("prewarms", int64(prewarms))
	return stats
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
var traceCache sync.Map // traceKey → *traceEntry

// traceEntry is one traceCache slot. The first caller for a key runs
// once; concurrent callers for the same key wait for that one
// generation instead of racing their own.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
}

// The trace cache's size, for /stats and /metrics: traces generated into
// it and the bytes their columns hold (see trace.RetainedBytes). The
// cache never evicts, so both only grow.
var cachedTraces, cachedTraceBytes atomic.Int64

// TraceCacheStats returns how many traces the process-wide trace cache
// holds and the bytes their instruction columns retain.
func TraceCacheStats() (traces, bytes int64) {
	return cachedTraces.Load(), cachedTraceBytes.Load()
}

// cachedTrace returns the (profile, instructions, seed) trace, generating
// and caching it process-wide on a miss. rec counts hits and misses: the
// one caller that generates a key's trace counts a miss, and every other
// caller, including those that waited on that generation, counts a hit.
func cachedTrace(p trace.Profile, instructions int, seed uint64, rec *obs.Recorder) *trace.Trace {
	key := traceKey{profile: p, instructions: instructions, seed: seed}
	v, ok := traceCache.Load(key)
	if !ok {
		v, _ = traceCache.LoadOrStore(key, new(traceEntry))
	}
	e := v.(*traceEntry)
	generated := false
	e.once.Do(func() {
		e.tr = p.Generate(instructions, seed)
		generated = true
		cachedTraces.Add(1)
		cachedTraceBytes.Add(e.tr.RetainedBytes())
	})
	if e.tr == nil {
		// Generate panicked in the caller that ran the once; it is
		// deterministic, so this key can never produce a trace.
		panic(fmt.Sprintf("core: the %s trace (n=%d, seed=%d) failed to generate", p.Name, instructions, seed))
	}
	if generated {
		rec.Add("trace_cache_misses", 1)
	} else {
		rec.Add("trace_cache_hits", 1)
	}
	return e.tr
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
