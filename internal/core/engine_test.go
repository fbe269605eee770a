package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// smallConfig keeps engine tests fast: few benchmarks, a short grid.
func smallConfig() SweepConfig {
	c := testConfig()
	c.Instructions = 8000
	c.UsefulGrid = []float64{4, 6, 8}
	c.Benchmarks = []trace.Profile{
		mustProfile("176.gcc"), mustProfile("171.swim"), mustProfile("177.mesa"),
	}
	return c
}

func mustProfile(name string) trace.Profile {
	p, ok := trace.ByName(name)
	if !ok {
		panic("no profile " + name)
	}
	return p
}

// TestDepthSweepWorkerCountInvariant is the determinism table test: the
// serial path and the parallel path must render bit-for-bit identical
// results, because results are slotted by index and aggregated serially.
func TestDepthSweepWorkerCountInvariant(t *testing.T) {
	base := smallConfig()
	var want string
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			got := fmt.Sprintf("%#v", DepthSweep(cfg).Points)
			if workers == 1 {
				want = got
				return
			}
			if got != want {
				t.Errorf("Workers=%d sweep differs from Workers=1", workers)
			}
		})
	}
}

func TestWarmupSentinel(t *testing.T) {
	// The zero value keeps its historical meaning: default 20%.
	c := SweepConfig{Instructions: 1000}
	c.fill()
	if c.Warmup != 200 {
		t.Errorf("Warmup 0 resolved to %d, want the 20%% default (200)", c.Warmup)
	}
	// NoWarmup requests explicitly zero warmup, which the zero value
	// could never express.
	c = SweepConfig{Instructions: 1000, Warmup: NoWarmup}
	c.fill()
	if c.Warmup != 0 {
		t.Errorf("Warmup NoWarmup resolved to %d, want 0", c.Warmup)
	}
	// Explicit positive values pass through untouched.
	c = SweepConfig{Instructions: 1000, Warmup: 123}
	c.fill()
	if c.Warmup != 123 {
		t.Errorf("Warmup 123 resolved to %d, want 123", c.Warmup)
	}
}

func TestNoWarmupChangesResults(t *testing.T) {
	cfg := smallConfig()
	withWarmup := DepthSweep(cfg)
	cfg.Warmup = NoWarmup
	noWarmup := DepthSweep(cfg)
	if withWarmup.Points[0].AllBIPS == noWarmup.Points[0].AllBIPS {
		t.Error("NoWarmup produced the same aggregate as the 20% default; sentinel not honored")
	}
}

// TestTraceCacheReuse pins the trace cache contract: the same
// (profile, instructions, seed) always yields the same *trace.Trace
// pointer, and different seeds yield different instances.
func TestTraceCacheReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.fill()
	a := cfg.traces()
	b := cfg.traces()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("trace %d regenerated instead of cached", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	c := cfg2.traces()
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("trace %d shared across different seeds", i)
		}
	}
}

var freshSeeds atomic.Uint64

// TestCachedTraceGeneratesOnce: callers racing for one fresh key wait for
// a single generation. Exactly one counts a miss, the rest count hits,
// all get the same trace, and the cache's gauges grow by that one
// trace's bytes.
func TestCachedTraceGeneratesOnce(t *testing.T) {
	const racers = 8
	p := mustProfile("164.gzip")
	// The cache is process-wide: under -count, each run needs a key no
	// earlier run generated.
	seed := 0xfeedface + freshSeeds.Add(1)
	rec := obs.New(nil)
	traces0, bytes0 := TraceCacheStats()
	got := make([]*trace.Trace, racers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(racers)
	for i := range got {
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i] = cachedTrace(p, 3000, seed, rec)
		}(i)
	}
	start.Done()
	done.Wait()

	if m := rec.Snapshot().Counters["trace_cache_misses"]; m != 1 {
		t.Errorf("trace_cache_misses = %d, want 1", m)
	}
	if h := rec.Snapshot().Counters["trace_cache_hits"]; h != racers-1 {
		t.Errorf("trace_cache_hits = %d, want %d", h, racers-1)
	}
	for i, tr := range got {
		if tr != got[0] {
			t.Errorf("racer %d got a different trace pointer", i)
		}
	}
	traces1, bytes1 := TraceCacheStats()
	if traces1-traces0 != 1 || bytes1-bytes0 != got[0].RetainedBytes() {
		t.Errorf("cache gauges grew by %d traces and %d bytes, want 1 and %d",
			traces1-traces0, bytes1-bytes0, got[0].RetainedBytes())
	}
}

// overheadSweepsOneByOne is Figure 6 as it ran before it became one
// grid: a DepthSweep per overhead, each with its own trace fetch and its
// own grid. It is the oracle for OverheadSensitivity.
func overheadSweepsOneByOne(cfg SweepConfig, overheadsFO4 []float64) []SweepResult {
	out := make([]SweepResult, 0, len(overheadsFO4))
	for _, o := range overheadsFO4 {
		c := cfg
		t := fo4.PaperOverhead.Total()
		c.Overhead = fo4.Overhead{
			Latch:  fo4.PaperOverhead.Latch * o / t,
			Skew:   fo4.PaperOverhead.Skew * o / t,
			Jitter: fo4.PaperOverhead.Jitter * o / t,
		}
		out = append(out, DepthSweep(c))
	}
	return out
}

// TestOverheadSensitivityIsOneGrid: Figure 6 runs as one grid — one
// trace fetch per benchmark and one executor task per (overhead × clock
// point × benchmark) cell — and returns exactly what seven separate
// DepthSweeps return, Config included, at one and two workers. An empty
// overhead list fetches nothing.
func TestOverheadSensitivityIsOneGrid(t *testing.T) {
	overheads := []float64{0, 1, 2, 3, 4, 5, 6}
	for _, workers := range []int{1, 2} {
		cfg := smallConfig()
		cfg.Workers = workers
		want := overheadSweepsOneByOne(cfg, overheads)
		cfg.Obs = obs.New(nil)
		got := OverheadSensitivity(cfg, overheads)
		for i := range got {
			got[i].Config.Obs = nil // the oracle ran unrecorded
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: OverheadSensitivity differs from one DepthSweep per overhead", workers)
		}
		cells := len(overheads) * len(cfg.UsefulGrid) * len(cfg.Benchmarks)
		if got, want := cfg.Obs.Snapshot().Tasks.Count, cells+len(cfg.Benchmarks); got != want {
			t.Errorf("workers=%d: ran %d executor tasks, want %d (one per cell plus one trace fetch per benchmark)", workers, got, want)
		}
	}

	cfg := smallConfig()
	cfg.Obs = obs.New(nil)
	if got := OverheadSensitivity(cfg, nil); got == nil || len(got) != 0 {
		t.Errorf("no overheads: got %#v, want an empty result", got)
	}
	if snap := cfg.Obs.Snapshot(); snap.Tasks.Count != 0 || len(snap.Counters) != 0 {
		t.Errorf("no overheads: ran %d tasks and counted %v, want nothing", snap.Tasks.Count, snap.Counters)
	}
}

// TestGridReusesWorkerScratch: the engine's Scratches outlive a grid, so
// at one worker a second identical one-benchmark sweep finds its memory
// template already prewarmed — and returns the same result.
func TestGridReusesWorkerScratch(t *testing.T) {
	cfg := smallConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1]
	cfg.Workers = 1
	first := DepthSweep(cfg)
	cfg.Obs = obs.New(nil)
	second := DepthSweep(cfg)
	if got := cfg.Obs.Snapshot().Counters["prewarms"]; got != 0 {
		t.Errorf("repeated sweep at one worker prewarmed %d times, want 0", got)
	}
	first.Config.Obs = nil
	second.Config.Obs = nil
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated sweep on a reused Scratch differs from the first")
	}
}

// TestGridAfterOtherGeometryMatchesRun: a grid whose workers' Scratches
// last served another memory geometry and a longer trace — Cray-1S flat
// memory at n = 3000, then the Alpha's caches at n = 2000 — still equals
// pipeline.Run cell by cell, as does the grid before it.
func TestGridAfterOtherGeometryMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, step := range []struct {
			machine config.Machine
			n       int
		}{
			{config.Cray1SMemorySystem(), 3000},
			{config.Alpha21264(), 2000},
		} {
			cfg := smallConfig()
			cfg.Machine = step.machine
			cfg.Instructions = step.n
			cfg.Workers = workers
			res := DepthSweep(cfg)
			traces := res.Config.traces()
			for _, pt := range res.Points {
				p := pipeline.Params{Machine: res.Config.Machine, Timing: res.Config.Machine.Resolve(pt.Clock), Warmup: res.Config.Warmup}
				for ti, b := range pt.PerBench {
					if want := pipeline.Run(p, traces[ti]); b.Stats != want {
						t.Errorf("workers=%d n=%d u=%v %s: cell diverges from pipeline.Run:\n got %+v\nwant %+v",
							workers, step.n, pt.Useful, b.Name, b.Stats, want)
					}
				}
			}
		}
	}
}
