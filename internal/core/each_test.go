package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestSimulateBatchMatchesOneLaneBatches pins the deprecated
// SimulateBatch, which the benchmark module still uses as its
// correctness oracle, to the per-point path: every point of a mixed
// grid over one trace, all on one BatchScratch, equals SimulatePoint.
func TestSimulateBatchMatchesOneLaneBatches(t *testing.T) {
	opts := eachGrid()
	got, err := SimulateBatch(opts, pipeline.NewBatchScratch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range opts {
		want, err := SimulatePoint(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("point %d: SimulateBatch diverges from SimulatePoint:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// eachGrid is a mixed point set over one trace: a depth sweep, a
// segmented window and the in-order core.
func eachGrid() []PointOptions {
	return []PointOptions{
		{Benchmark: "gcc", Useful: 4, Instructions: 5000},
		{Benchmark: "gcc", Useful: 6, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Window: 32, WindowStages: 4},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Machine: "inorder"},
	}
}

// TestSweepAndEachCountAlike: a one-benchmark DepthSweep and
// SimulateEach over the same points record the same "simulations",
// "wakeup_wakes" and "wakeup_scanned", so a study manifest and the
// daemon's /stats count a simulation the same way.
func TestSweepAndEachCountAlike(t *testing.T) {
	grid := []float64{4, 6, 8}
	sweepRec, eachRec := obs.New(nil), obs.New(nil)
	DepthSweep(SweepConfig{
		Machine:      config.Alpha21264(),
		Overhead:     fo4.PaperOverhead,
		UsefulGrid:   grid,
		Benchmarks:   []trace.Profile{mustProfile("176.gcc")},
		Instructions: 5000,
		Workers:      2,
		Obs:          sweepRec,
	})
	opts := make([]PointOptions, len(grid))
	for i, u := range grid {
		opts[i] = PointOptions{Benchmark: "gcc", Useful: u, Instructions: 5000}
	}
	if err := SimulateEach(opts, nil, eachRec, func(int, BenchPoint) {}); err != nil {
		t.Fatal(err)
	}
	sweep, each := sweepRec.Snapshot().Counters, eachRec.Snapshot().Counters
	if got := each["simulations"]; got != int64(len(grid)) {
		t.Errorf("SimulateEach over %d points counted %d simulations", len(grid), got)
	}
	for _, name := range []string{"simulations", "wakeup_wakes", "wakeup_scanned"} {
		if s, e := sweep[name], each[name]; s != e {
			t.Errorf("%s: DepthSweep counted %d, SimulateEach %d", name, s, e)
		}
	}
}

// TestSimulateEachEmitsBeforeNextPoint: SimulateEach hands each point
// over as soon as it finishes, before the next one runs, so a streaming
// caller can publish it while the rest go on. Each emit runs the shared
// Scratch over a trace with other working-set tiers, which forces the
// next point to re-prewarm the memory template: point k (in emission
// order) must therefore see exactly 2k+1 prewarms, which it would not if
// a later point had run before its emission. Results must not notice,
// and every point is emitted exactly once.
func TestSimulateEachEmitsBeforeNextPoint(t *testing.T) {
	opts := eachGrid()
	swim := cachedTrace(mustProfile("171.swim"), 5000, 1, nil)
	poison, _ := opts[0].Normalize().params()
	s := pipeline.NewScratch()
	k, seen := 0, make([]bool, len(opts))
	err := SimulateEach(opts, s, nil, func(i int, p BenchPoint) {
		if seen[i] {
			t.Errorf("point %d emitted twice", i)
		}
		seen[i] = true
		if got, want := s.Prewarms(), uint64(2*k+1); got != want {
			t.Errorf("point %d emitted after %d prewarms, want %d: a later point ran before it was emitted", i, got, want)
		}
		if want, err := SimulatePoint(opts[i], nil); err != nil || p != want {
			t.Errorf("point %d diverges from SimulatePoint (err %v):\n got %+v\nwant %+v", i, err, p, want)
		}
		pipeline.RunWith(poison, swim, s)
		k++
	})
	if err != nil {
		t.Fatal(err)
	}
	if k != len(opts) {
		t.Errorf("emitted %d points, want %d", k, len(opts))
	}
}

// TestSimulateEachRejectsMixedTraces: one SimulateEach call shares one
// generated trace by contract; points naming another benchmark,
// instruction count or seed must be refused, not silently merged.
// Invalid points are refused, tagged by index, before any point runs,
// and an empty call is a no-op.
func TestSimulateEachRejectsMixedTraces(t *testing.T) {
	refuse := func(i int, _ BenchPoint) { t.Errorf("refused call emitted point %d", i) }
	base := PointOptions{Benchmark: "gcc", Useful: 6, Instructions: 5000}
	for _, bad := range []PointOptions{
		{Benchmark: "swim", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 6000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Seed: 7},
	} {
		if err := SimulateEach([]PointOptions{base, bad}, nil, nil, refuse); err == nil {
			t.Errorf("mixed points %+v accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "shares one trace") {
			t.Errorf("mixed points error %q does not name the contract", err)
		}
	}
	err := SimulateEach([]PointOptions{base, {Benchmark: "nope", Useful: 6}}, nil, nil, refuse)
	if err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("invalid point: err = %v, want an error naming point 1", err)
	}
	if err := SimulateEach(nil, nil, nil, refuse); err != nil {
		t.Errorf("empty call: err = %v", err)
	}
}

// TestGridCellsMatchRunAlone is the engine's equivalence oracle: every
// cell of a study grid, run as one executor task on a worker's reused
// Scratch in trace-major geometry order, must equal that cell run alone
// through pipeline.RunWith on a fresh Scratch, at every worker count.
// Two grids: a depth sweep (one geometry, through DepthSweep) and a
// slice of Figure 7's capacity space whose DL1/L2 geometries interleave,
// so the per-worker prewarm template is rebuilt on geometry changes and
// the cells are re-slotted from GeometryOrder.
func TestGridCellsMatchRunAlone(t *testing.T) {
	base := smallConfig()
	base.fill()
	traces := base.traces()
	alone := func(p pipeline.Params, tr *trace.Trace) string {
		return fmt.Sprintf("%#v", pipeline.RunWith(p, tr, pipeline.NewScratch()))
	}

	var capacity []pipeline.Params
	clk := fo4.Clock{Useful: 6, Overhead: base.Overhead}
	for _, win := range [][2]int{{20, 15}, {32, 24}} {
		for _, dl1 := range []int{16, 64} {
			for _, l2 := range []int{512, 2048} {
				m := StructChoice{DL1KB: dl1, L2KB: l2, IntWin: win[0], FPWin: win[1]}.apply(base.Machine)
				capacity = append(capacity, pipeline.Params{Machine: m, Timing: m.Resolve(clk), Warmup: base.Warmup})
			}
		}
	}
	if order := pipeline.GeometryOrder(capacity); order[1] == 1 {
		t.Fatalf("capacity grid is already grouped by geometry (order %v); it would not exercise re-slotting", order)
	}

	for _, workers := range []int{1, 2, 4} {
		cfg := base
		cfg.Workers = workers

		sweep := DepthSweep(cfg)
		for _, pt := range sweep.Points {
			p := pipeline.Params{Machine: cfg.Machine, Timing: cfg.Machine.Resolve(pt.Clock), Warmup: cfg.Warmup}
			for ti, b := range pt.PerBench {
				if got, want := fmt.Sprintf("%#v", b.Stats), alone(p, traces[ti]); got != want {
					t.Errorf("workers=%d depth sweep u=%v %s: cell diverges from RunWith alone:\n got %s\nwant %s",
						workers, pt.Useful, b.Name, got, want)
				}
			}
		}

		stats := runGrid(cfg, capacity, traces)
		for pi, p := range capacity {
			for ti, tr := range traces {
				if got, want := fmt.Sprintf("%#v", stats[pi*len(traces)+ti]), alone(p, tr); got != want {
					t.Errorf("workers=%d capacity lane %d %s: cell diverges from RunWith alone:\n got %s\nwant %s",
						workers, pi, tr.Name, got, want)
				}
			}
		}
	}
}

// TestDepthSweepDispatchesOneTaskPerCell pins the dispatch shape: a
// one-benchmark depth sweep is 15 executor tasks (plus the one that
// fetches the benchmark's trace), not one indivisible task per
// benchmark that leaves every other worker idle. At one worker the
// trace-major order prewarms the memory template exactly once. The
// engine's Scratches outlive a grid, so the benchmark is a gcc variant
// whose odd WarmBytes no suite profile and no earlier run of this test
// has: the Scratch the sweep gets cannot arrive prewarmed for it.
func TestDepthSweepDispatchesOneTaskPerCell(t *testing.T) {
	p := mustProfile("176.gcc")
	p.FootprintBytes += 8 * (2*freshSeeds.Add(1) + 1)
	cfg := smallConfig()
	cfg.UsefulGrid = PaperGrid()
	cfg.Benchmarks = []trace.Profile{p}
	cfg.Workers = 1
	cfg.Obs = obs.New(nil)
	DepthSweep(cfg)

	snap := cfg.Obs.Snapshot()
	if got, want := snap.Tasks.Count, len(cfg.UsefulGrid)+1; got != want {
		t.Errorf("one-benchmark depth sweep ran %d executor tasks, want %d (one per cell plus the trace fetch)", got, want)
	}
	if got := snap.Counters["prewarms"]; got != 1 {
		t.Errorf("one-benchmark depth sweep at one worker prewarmed %d times, want 1", got)
	}
}
