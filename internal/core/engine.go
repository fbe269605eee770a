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
	"runtime"
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
// sweep's recorder (when present) onto the executor's observation hook.
func (c SweepConfig) pool() exec.Pool {
	p := exec.Pool{Workers: c.Workers, Ctx: c.Context}
	if c.Obs != nil {
		p.OnTask = c.Obs.Task
	}
	return p
}

// cancelled reports whether the sweep's context has been cancelled.
func (c SweepConfig) cancelled() bool {
	return c.Context != nil && c.Context.Err() != nil
}

// cell is one (params, trace) cell of a study grid, by index.
type cell struct{ pi, ti int }

// run simulates one point on s and counts it into rec: "simulations",
// the simulator's work-sharing economy ("wakeup_wakes", the wakes
// delivered through the waiter lists, against "wakeup_scanned", the
// window entries a per-issue broadcast scan would have touched) and the
// memory-template "prewarms" s ran for it. Every simulation the package
// runs, grid cell or served point, goes through here.
func run(p pipeline.Params, tr *trace.Trace, s *pipeline.Scratch, rec *obs.Recorder) pipeline.Stats {
	before := s.Prewarms()
	st := pipeline.RunWith(p, tr, s)
	rec.Add("simulations", 1)
	rec.Add("wakeup_wakes", int64(st.WakeupWakes))
	rec.Add("wakeup_scanned", int64(st.WakeupScanned))
	rec.Add("prewarms", int64(s.Prewarms()-before))
	return st
}

// runGrid simulates the full (params × traces) product and returns stats
// indexed [pi*len(traces)+ti]. Every cell is its own executor task, so
// a grid of one benchmark still spreads over the whole pool. Tasks run
// trace-major, each trace's cells in pipeline.GeometryOrder, and each
// worker threads one pipeline.Scratch, taken from the engine's free list
// (see scratches), through its tasks: the Scratch re-prewarms its memory
// template only when the trace or the geometry changes, so a worker
// taking consecutive cells of one benchmark shares one prewarm walk, and
// a grid that follows one over the same benchmark may need none. A
// cell's Stats never depend on which worker ran it or what ran before,
// so results are bit-for-bit identical at any worker count.
func runGrid(cfg SweepConfig, params []pipeline.Params, traces []*trace.Trace) []pipeline.Stats {
	order := pipeline.GeometryOrder(params)
	cells := make([]cell, 0, len(params)*len(traces))
	for ti := range traces {
		for _, pi := range order {
			cells = append(cells, cell{pi: pi, ti: ti})
		}
	}
	var leased []*pipeline.Scratch
	out, _ := exec.MapWithState(cfg.pool(), cells,
		func() *pipeline.Scratch { return scratches.get(&leased) },
		func(s *pipeline.Scratch, _ int, c cell) pipeline.Stats {
			return run(params[c.pi], traces[c.ti], s, cfg.Obs)
		})
	// Not deferred: a grid whose run panicked drops its Scratches rather
	// than return one that stopped mid-run.
	scratches.put(leased)

	// On cancellation the unfinished slots hold zero Stats; callers check
	// cancelled() before aggregating (a zero IPC would poison the
	// harmonic means).
	stats := make([]pipeline.Stats, len(cells))
	for k, c := range cells {
		stats[c.pi*len(traces)+c.ti] = out[k]
	}
	return stats
}

// scratchFreeList holds worker Scratches between grids, most recently
// returned last, so a study's grids reuse their workers' arenas, cache
// arrays and prewarmed templates instead of building them per grid.
// A Scratch is an allocation amortizer, never an input (every RunWith
// re-initializes what it reads), so which grid or worker gets which one
// cannot change a result. It keeps at most GOMAXPROCS Scratches, one per
// worker a default-sized pool can run at once, so retention stays
// bounded however wide a grid ran.
type scratchFreeList struct {
	mu   sync.Mutex
	free []*pipeline.Scratch
}

// scratches is the sweep engine's process-wide Scratch free list.
var scratches scratchFreeList

// get pops the most recently returned Scratch, or makes a fresh one, and
// appends it to *leased under the list's lock, so a grid's workers can
// record what they took for the grid to put back.
func (l *scratchFreeList) get(leased *[]*pipeline.Scratch) *pipeline.Scratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s *pipeline.Scratch
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		s = pipeline.NewScratch()
	}
	*leased = append(*leased, s)
	return s
}

// put returns a grid's Scratches, dropping those beyond the bound.
func (l *scratchFreeList) put(ss []*pipeline.Scratch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range ss {
		if len(l.free) >= runtime.GOMAXPROCS(0) {
			return
		}
		l.free = append(l.free, s)
	}
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
	var groups [3][]float64
	bips := make([]float64, len(traces))
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
		pt.PerBench = make([]BenchPoint, 0, len(traces))
		for ti, tr := range traces {
			s := stats[si*len(traces)+ti]
			bips[ti] = metrics.BIPS(s.IPC, pt.FreqHz)
			pt.PerBench = append(pt.PerBench, BenchPoint{
				Name: tr.Name, Group: tr.Group, IPC: s.IPC, BIPS: bips[ti], Stats: s,
			})
		}
		pt.GroupBIPS, pt.AllBIPS = groupMeans(traces, bips, &groups)
		points[si] = pt
	}
	return points
}

// groupMeans returns the harmonic means of xs, where xs[ti] belongs to
// traces[ti], per benchmark group and over the whole suite. groups is
// per-group scratch (indexed by trace.Group) reused across calls. Each
// series keeps benchmark order and the groups are read in
// trace.Groups() order, the fold order of the historical map-based
// aggregation, so every mean is bit-for-bit what it always was.
func groupMeans(traces []*trace.Trace, xs []float64, groups *[3][]float64) (map[trace.Group]float64, float64) {
	for g := range groups {
		groups[g] = groups[g][:0]
	}
	for ti, tr := range traces {
		groups[tr.Group] = append(groups[tr.Group], xs[ti])
	}
	means := map[trace.Group]float64{}
	for _, g := range trace.Groups() {
		if xs := groups[g]; len(xs) > 0 {
			means[g] = metrics.HarmonicMean(xs)
		}
	}
	return means, metrics.HarmonicMean(xs)
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
	var groups [3][]float64
	ipcs := make([]float64, len(traces))
	for mi := range mods {
		if cfg.cancelled() {
			out[mi] = ipcPoint{groups: map[trace.Group]float64{}}
			continue
		}
		for ti := range traces {
			ipcs[ti] = stats[mi*len(traces)+ti].IPC
		}
		g, all := groupMeans(traces, ipcs, &groups)
		out[mi] = ipcPoint{groups: g, all: all}
	}
	return out
}
