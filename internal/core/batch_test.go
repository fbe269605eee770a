package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fo4"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestSimulateBatchMatchesOneLaneBatches pins the serving layer's batch
// entry point against single points: every lane of a mixed grid over
// one trace must match that lane simulated as a one-lane SimulateBatch
// on a fresh BatchScratch, field for field once the batch accounting
// counters (which never reach the wire) are cleared.
func TestSimulateBatchMatchesOneLaneBatches(t *testing.T) {
	opts := []PointOptions{
		{Benchmark: "gcc", Useful: 4, Instructions: 5000},
		{Benchmark: "gcc", Useful: 6, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Window: 32, WindowStages: 4},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Machine: "inorder"},
	}
	bs := pipeline.NewBatchScratch()
	got, err := SimulateBatch(opts, bs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(opts) {
		t.Fatalf("got %d results for %d lanes", len(got), len(opts))
	}
	for i, o := range opts {
		want, err := SimulateBatch([]PointOptions{o}, pipeline.NewBatchScratch(), nil)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		g.Stats.BatchLanes, g.Stats.BatchSharedDecode = 0, 0
		if g != want[0] {
			t.Errorf("lane %d: batched point diverges:\n got %+v\nwant %+v", i, g, want[0])
		}
	}
}

// TestSimulateBatchRejectsMixedTraces: a batch shares one generated
// trace by contract; lanes naming another benchmark, instruction count
// or seed must be refused, not silently merged.
func TestSimulateBatchRejectsMixedTraces(t *testing.T) {
	base := PointOptions{Benchmark: "gcc", Useful: 6, Instructions: 5000}
	for _, bad := range []PointOptions{
		{Benchmark: "swim", Useful: 8, Instructions: 5000},
		{Benchmark: "gcc", Useful: 8, Instructions: 6000},
		{Benchmark: "gcc", Useful: 8, Instructions: 5000, Seed: 7},
	} {
		if _, err := SimulateBatch([]PointOptions{base, bad}, nil, nil); err == nil {
			t.Errorf("mixed batch %+v accepted, want error", bad)
		} else if !strings.Contains(err.Error(), "shares one trace") {
			t.Errorf("mixed batch error %q does not name the contract", err)
		}
	}
	// Invalid lanes are caught before any simulation, tagged by index —
	// so the streaming entry never emits a lane of a refused batch.
	invalid := []PointOptions{base, {Benchmark: "nope", Useful: 6}}
	if _, err := SimulateBatch(invalid, nil, nil); err == nil {
		t.Error("invalid lane accepted")
	}
	if err := SimulateBatchEach(invalid, nil, nil, func(lane int, _ BenchPoint) {
		t.Errorf("refused batch emitted lane %d", lane)
	}); err == nil {
		t.Error("SimulateBatchEach accepted an invalid lane")
	}
	// An empty batch is a no-op, not an error.
	if out, err := SimulateBatch(nil, nil, nil); err != nil || out != nil {
		t.Errorf("empty batch: out=%v err=%v", out, err)
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
// trace-major order prewarms the memory template exactly once.
func TestDepthSweepDispatchesOneTaskPerCell(t *testing.T) {
	cfg := smallConfig()
	cfg.UsefulGrid = PaperGrid()
	cfg.Benchmarks = cfg.Benchmarks[:1]
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
