package pipeline

import "testing"

// batchGrid builds a deliberately heterogeneous lane set: a depth sweep,
// the Section 5 window variants, an in-order lane, and one lane with a
// doubled L1 (a second geometry), so one reused Scratch sees structural
// divergence and a template rebuild in one grid.
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

// TestRunBatchMatchesRunWith pins the deprecated RunBatch, which the
// benchmark module still times, to the per-point path: every lane of a
// mixed grid, all on one BatchScratch's reused Scratch, equals RunWith
// on a fresh Scratch field for field.
func TestRunBatchMatchesRunWith(t *testing.T) {
	params := batchGrid()
	bs := NewBatchScratch()
	for _, bench := range []string{"176.gcc", "171.swim"} {
		tr := getTrace(t, bench, 20000)
		for i, got := range RunBatch(params, tr, bs.Lanes(len(params))) {
			if want := RunWith(params[i], tr, NewScratch()); got != want {
				t.Errorf("%s lane %d: RunBatch diverges from RunWith:\n got %+v\nwant %+v", bench, i, got, want)
			}
		}
	}
}
