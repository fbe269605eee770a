package pipeline

import (
	"strconv"
	"testing"
)

// batchGrid builds a deliberately heterogeneous lane set: a depth sweep,
// the Section 5 window variants, an in-order lane, and one lane with a
// doubled L1 (a second geometry partition), so the property test covers
// the uniform fast path, structural divergence and the partition
// bookkeeping in one grid.
func batchGrid() []Params {
	var ps []Params
	for _, useful := range []float64{2, 4, 6, 8, 12, 16} {
		ps = append(ps, paramsAt(useful))
	}
	ws := paramsAt(6)
	ws.Machine.UnifiedWindow = 32
	ws.WindowStages = 4
	ps = append(ps, ws)

	pre := ws
	pre.PreSelect = []int{5, 2, 1}
	ps = append(ps, pre)

	naive := ws
	naive.NaivePipelining = true
	ps = append(ps, naive)

	ino := paramsAt(8)
	ino.Machine.InOrder = true
	ps = append(ps, ino)

	bigL1 := paramsAt(6)
	bigL1.Machine.Structures.DL1.CapacityBytes *= 2
	ps = append(ps, bigL1)
	return ps
}

// TestRunBatchMatchesRunWith is the batch equivalence property: for
// every lane of a mixed grid, RunBatch(params, tr, ...)[i] — every lane
// on the BatchScratch's one shared Scratch — equals RunWith(params[i],
// tr, ...) on a fresh Scratch field for field once the batch accounting
// counters are cleared: N batched lanes are indistinguishable from N
// independent runs. CI runs the package under -race, so the shared
// decode and template state also get the data-race treatment here.
func TestRunBatchMatchesRunWith(t *testing.T) {
	params := batchGrid()
	for _, bench := range []string{"176.gcc", "171.swim"} {
		tr := getTrace(t, bench, 20000)

		bs := NewBatchScratch()
		got := RunBatch(params, tr, bs.Lanes(len(params)))

		for i, p := range params {
			want := RunWith(p, tr, NewScratch())
			g := got[i]
			g.BatchLanes, g.BatchSharedDecode = 0, 0
			if g != want {
				t.Errorf("%s lane %d: batched stats diverge:\n got %+v\nwant %+v", bench, i, g, want)
			}
		}

		// Second pass on the same BatchScratch, through the streaming
		// entry: reuse must not leak state, and every lane is emitted
		// exactly once with the Stats RunBatch collects.
		emitted := make([]int, len(params))
		RunBatchEach(params, tr, bs.Lanes(len(params)), func(lane int, st Stats) {
			emitted[lane]++
			if st != got[lane] {
				t.Errorf("%s lane %d: batch reuse diverges", bench, lane)
			}
		})
		for i, n := range emitted {
			if n != 1 {
				t.Errorf("%s lane %d emitted %d times, want once", bench, i, n)
			}
		}
	}
}

// TestRunBatchEachEmitsBeforeNextLane: RunBatchEach hands a lane over
// as soon as it finishes, before the next lane runs, so a streaming
// caller can publish it while the batch goes on. At each emission the
// shared Scratch must still hold that lane's final state — the last
// instruction's completion cycle of that lane run alone — not a later
// lane's.
func TestRunBatchEachEmitsBeforeNextLane(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	last := tr.Len() - 1
	bs := NewBatchScratch()
	RunBatchEach(params, tr, bs.Lanes(len(params)), func(lane int, _ Stats) {
		alone := NewScratch()
		RunWith(params[lane], tr, alone)
		if got, want := bs.lane.times[last].complete, alone.times[last].complete; got != want {
			t.Errorf("lane %d emitted with the scratch at completion cycle %d, want its own %d: emission waited for a later lane", lane, got, want)
		}
	})
}

// TestBatchScratchRetainsOneLane: RunBatch runs its lanes one after
// another, so a BatchScratch that has served a 15-lane batch retains
// exactly one lane Scratch — a worker's batching memory is one lane's
// state, not one per lane.
func TestBatchScratchRetainsOneLane(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	bs := NewBatchScratch()
	RunBatch(params, tr, bs.Lanes(len(params)))
	retained := map[*Scratch]bool{}
	for _, s := range bs.slots {
		retained[s] = true
	}
	if len(retained) != 1 || !retained[bs.lane] {
		t.Fatalf("BatchScratch retains %d distinct lane Scratches after a 15-lane batch, want exactly 1", len(retained))
	}
}

// TestRunBatchAccounting pins the batch counters: a uniform-geometry
// batch reports its lane count on every lane, every lane after the
// first reports the shared decode length, and a single-lane batch is
// indistinguishable from an unbatched run (zero counters).
func TestRunBatchAccounting(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := []Params{paramsAt(4), paramsAt(6), paramsAt(8)}
	bs := NewBatchScratch()
	out := RunBatch(params, tr, bs.Lanes(len(params)))
	for i, s := range out {
		if s.BatchLanes != 3 {
			t.Errorf("lane %d: BatchLanes = %d, want 3", i, s.BatchLanes)
		}
		wantShared := uint64(0)
		if i > 0 {
			wantShared = uint64(tr.Len())
		}
		if s.BatchSharedDecode != wantShared {
			t.Errorf("lane %d: BatchSharedDecode = %d, want %d", i, s.BatchSharedDecode, wantShared)
		}
	}

	single := RunBatch(params[:1], tr, bs.Lanes(1))
	if single[0].BatchLanes != 0 || single[0].BatchSharedDecode != 0 {
		t.Errorf("single-lane batch carries batch counters: %+v", single[0])
	}
	if want := RunWith(params[0], tr, NewScratch()); single[0] != want {
		t.Errorf("single-lane batch diverges from RunWith:\n got %+v\nwant %+v", single[0], want)
	}
}

// TestRunBatchSteadyStateAllocs pins the batch dispatch's allocation
// economy: once a BatchScratch has served one batch, later batches of
// the same shape allocate only the result slice, independent of lane
// count.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	bs := NewBatchScratch()
	RunBatch(params, tr, bs.Lanes(len(params))) // warm the scratch set

	allocs := testing.AllocsPerRun(3, func() {
		RunBatch(params, tr, bs.Lanes(len(params)))
	})
	// One allocation for the out []Stats; anything more means per-lane
	// state stopped being reused.
	if allocs > 2 {
		t.Errorf("steady-state RunBatch allocates %.1f objects per 15-lane batch, want <= 2", allocs)
	}
}

// benchBatch measures one RunBatch call per iteration at the given lane
// count. The 1-lane case prices a lone lane against BenchmarkRunOutOfOrder;
// the 15-lane case is the depth-sweep shape (useful 2..16) that
// sweepd's multi-depth batches run.
func benchBatch(b *testing.B, bench string, lanes int) {
	tr := getTrace(b, bench, 40000)
	params := make([]Params, 0, lanes)
	for i := 0; i < lanes; i++ {
		params = append(params, paramsAt(float64(2+i)))
	}
	bs := NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunBatch(params, tr, bs.Lanes(len(params)))
	}
}

func BenchmarkRunBatch(b *testing.B) {
	for _, bench := range []string{"176.gcc", "171.swim"} {
		for _, lanes := range []int{1, 15} {
			b.Run(bench+"/lanes="+strconv.Itoa(lanes), func(b *testing.B) {
				benchBatch(b, bench, lanes)
			})
		}
	}
}
