package pipeline

import (
	"runtime"
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

// TestScratchRetainedBytes pins the window rings: what a Scratch keeps
// after a run depends on the machine, not on the trace's length. The
// out-of-order core at the paper grid's deepest point (the largest
// ring) retains the same bytes after 10 k and 1 M instructions, and the
// in-order core after 100 k and 1 M (its ring reaches its trace.MaxDep
// cap at 65536 instructions). The count must also be what the heap
// actually grew by, within 10%.
func TestScratchRetainedBytes(t *testing.T) {
	prof, ok := trace.ByName("176.gcc")
	if !ok {
		t.Fatal("no profile 176.gcc")
	}
	long := prof.Generate(1_000_000, 1)
	ooo := paramsAt(2)
	inorder := ooo
	inorder.Machine.InOrder = true
	for _, c := range []struct {
		name  string
		p     Params
		short int
	}{{"out-of-order", ooo, 10_000}, {"in-order", inorder, 100_000}} {
		retained := func(tr *trace.Trace) int64 {
			s := NewScratch()
			RunWith(c.p, tr, s)
			return s.RetainedBytes()
		}
		short, full := retained(prof.Generate(c.short, 1)), retained(long)
		if short != full {
			t.Errorf("%s: a Scratch retains %d B after %d instructions but %d B after %d", c.name, short, c.short, full, long.Len())
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewScratch()
		RunWith(c.p, long, s)
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if got := s.RetainedBytes(); got < grown*9/10 || got > grown*11/10 {
			t.Errorf("%s: RetainedBytes = %d, but the heap grew by %d B", c.name, got, grown)
		}
		runtime.KeepAlive(s)
	}
}
