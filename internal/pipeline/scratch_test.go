package pipeline

import (
	"testing"

	"repro/internal/trace"
)

// TestScratchTemplateMemo pins the Scratch's prewarmed memory template:
// it is keyed by cache geometry and the trace's working-set tiers, and
// is re-prewarmed exactly when that key changes. One Scratch replays
// (A, G1), (B, G1) where B has other WarmBytes, (A, G2), (A, G1), (A,
// G1): every run must equal the same run on a fresh Scratch field for
// field, and the template is prewarmed four times — the last run reuses
// the fourth's template.
func TestScratchTemplateMemo(t *testing.T) {
	a, b := getTrace(t, "176.gcc", 20000), getTrace(t, "171.swim", 20000)
	if a.HotBytes != b.HotBytes || a.WarmBytes == b.WarmBytes {
		t.Fatalf("traces must share HotBytes and differ in WarmBytes: %s %d/%d, %s %d/%d",
			a.Name, a.HotBytes, a.WarmBytes, b.Name, b.HotBytes, b.WarmBytes)
	}
	g1 := paramsAt(6)
	g2 := paramsAt(6)
	g2.Machine.Structures.DL1.CapacityBytes *= 2

	s := NewScratch()
	for i, run := range []struct {
		p  Params
		tr *trace.Trace
	}{{g1, a}, {g1, b}, {g2, a}, {g1, a}, {g1, a}} {
		if got, want := RunWith(run.p, run.tr, s), RunWith(run.p, run.tr, NewScratch()); got != want {
			t.Errorf("run %d (%s): reused Scratch diverges from a fresh one:\n got %+v\nwant %+v", i, run.tr.Name, got, want)
		}
	}
	if got := s.Prewarms(); got != 4 {
		t.Errorf("Scratch prewarmed its template %d times, want 4", got)
	}
}

// TestScratchSteadyStateAllocs pins the reuse economy: once a Scratch
// has run a 15-point depth sweep, running it again in GeometryOrder
// allocates only the order slice — per-point state is reused.
func TestScratchSteadyStateAllocs(t *testing.T) {
	tr := getTrace(t, "176.gcc", 20000)
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	s := NewScratch()
	sweep := func() {
		for _, i := range GeometryOrder(params) {
			RunWith(params[i], tr, s)
		}
	}
	sweep() // warm the scratch
	if allocs := testing.AllocsPerRun(3, sweep); allocs > 1 {
		t.Errorf("warm 15-point sweep on one Scratch allocates %.1f objects, want <= 1", allocs)
	}
}
