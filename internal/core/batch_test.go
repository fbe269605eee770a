package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestSimulateBatchMatchesSimulatePointWith pins the serving layer's
// batch entry point against the single-point path it replaces: every
// lane of a mixed grid over one trace must match SimulatePointWith
// field for field once the batch accounting counters (which never reach
// the wire) are cleared.
func TestSimulateBatchMatchesSimulatePointWith(t *testing.T) {
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
	sc := pipeline.NewScratch()
	for i, o := range opts {
		want, err := SimulatePointWith(o, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		g.Stats.BatchLanes, g.Stats.BatchSharedDecode = 0, 0
		if g != want {
			t.Errorf("lane %d: batched point diverges:\n got %+v\nwant %+v", i, g, want)
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

// TestDepthSweepBatchedMatchesUnbatched is the engine-level equivalence
// oracle: the batched grid dispatch (the default) and the per-cell path
// behind DisableBatch must produce identical sweep results modulo the
// batch accounting counters, at more than one worker count.
func TestDepthSweepBatchedMatchesUnbatched(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := smallConfig()
		base.Workers = workers

		flat := base
		flat.DisableBatch = true
		want := DepthSweep(flat)
		got := DepthSweep(base)

		sawBatch := false
		for pi := range got.Points {
			for bi := range got.Points[pi].PerBench {
				b := &got.Points[pi].PerBench[bi]
				if b.Stats.BatchLanes > 0 {
					sawBatch = true
				}
				b.Stats.BatchLanes, b.Stats.BatchSharedDecode = 0, 0
			}
		}
		if !sawBatch {
			t.Errorf("workers=%d: batched sweep set no batch counters — did the grid batch at all?", workers)
		}
		g, w := fmt.Sprintf("%#v", got.Points), fmt.Sprintf("%#v", want.Points)
		if g != w {
			t.Errorf("workers=%d: batched sweep diverges from per-cell sweep", workers)
		}
	}
}
