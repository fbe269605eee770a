package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
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

func TestDepthSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	cfg := smallConfig()
	cfg.Context = ctx
	res := DepthSweep(cfg)
	if err := ctx.Err(); err == nil {
		t.Fatal("context unexpectedly alive")
	}
	// A cancelled sweep returns promptly with empty aggregates rather
	// than panicking inside the harmonic means.
	for _, p := range res.Points {
		if p.AllBIPS != 0 || len(p.PerBench) != 0 {
			t.Errorf("cancelled sweep produced aggregates: %+v", p)
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

	if m := rec.Counter("trace_cache_misses"); m != 1 {
		t.Errorf("trace_cache_misses = %d, want 1", m)
	}
	if h := rec.Counter("trace_cache_hits"); h != racers-1 {
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
