package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
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
// ring and ready-time wheel) retains the same bytes after 10 k and 1 M
// instructions, and the in-order core after 100 k and 1 M (its ring
// reaches its trace.MaxDep cap at 65536 instructions). The count must
// also be what the heap actually grew by, within 10%. With caches, the
// two hierarchies dominate that count; the flat-memory (Cray-1S)
// out-of-order machine holds no cache state, so its case pins the
// window rings, issue-queue bitmaps, waiter pool and ready-time wheel
// themselves, the wheel stretched by a long load-use loop so that
// leaving it out of the count fails the test.
func TestScratchRetainedBytes(t *testing.T) {
	prof, ok := trace.ByName("176.gcc")
	if !ok {
		t.Fatal("no profile 176.gcc")
	}
	long := prof.Generate(1_000_000, 1)
	ooo := paramsAt(2)
	inorder := ooo
	inorder.Machine.InOrder = true
	flat := ooo
	flat.Machine = config.Cray1SMemorySystem()
	flat.Machine.InOrder = false
	flat.Timing = flat.Machine.Resolve(ooo.Timing.Clock)
	flat.ExtraLoadUse = 1000 // a full 1024-bucket wheel: an eighth of the count
	for _, c := range []struct {
		name  string
		p     Params
		short int
	}{{"out-of-order", ooo, 10_000}, {"in-order", inorder, 100_000}, {"out-of-order flat memory", flat, 10_000}} {
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

// TestReadyWheelOverflow pins the ready-time wheel's bound: entries due
// more than maxWheel cycles ahead wait in its overflow list, so a run
// whose latencies reach far beyond the wheel still matches the reference
// core on every machine shape, and retains no more than a run at the
// paper grid's deepest point. Without the bound, a 0.001-FO4 stage (a
// latency of millions of cycles) would size a multi-megabyte wheel.
func TestReadyWheelOverflow(t *testing.T) {
	tr := getTrace(t, "176.gcc", 3000)
	longLoads := paramsAt(4)
	longLoads.ExtraLoadUse = 3000
	noOverhead := config.Alpha21264()
	shortStages := Params{Machine: noOverhead, Timing: noOverhead.Resolve(fo4.Clock{Useful: 1})}
	shapes := []struct {
		name string
		mod  func(*Params)
	}{
		{"split", func(*Params) {}},
		{"ws4", func(p *Params) { p.Machine.UnifiedWindow, p.WindowStages = 32, 4 }},
		{"ws4-preselect", func(p *Params) {
			p.Machine.UnifiedWindow, p.WindowStages, p.PreSelect = 32, 4, []int{5, 2, 1}
		}},
		{"ws4-naive", func(p *Params) {
			p.Machine.UnifiedWindow, p.WindowStages, p.NaivePipelining = 32, 4, true
		}},
	}
	s := NewScratch()
	for _, base := range []struct {
		name string
		p    Params
	}{{"load-use +3000", longLoads}, {"1 FO4, no overhead", shortStages}} {
		for _, sh := range shapes {
			p := base.p
			p.Warmup = tr.Len() / 4
			sh.mod(&p)
			got, want := RunWith(p, tr, s), refRun(p, tr)
			got.WakeupWakes, got.WakeupScanned = 0, 0
			want.WakeupWakes, want.WakeupScanned = 0, 0
			if got != want {
				t.Errorf("%s, %s: diverges from the reference core:\n got %+v\nwant %+v", base.name, sh.name, got, want)
			}
		}
	}

	prof, ok := trace.ByName("176.gcc")
	if !ok {
		t.Fatal("no profile 176.gcc")
	}
	small := prof.Generate(500, 1) // a 512-slot ring at both depths
	retained := func(p Params) int64 {
		s := NewScratch()
		RunWith(p, small, s)
		return s.RetainedBytes()
	}
	deepest := retained(paramsAt(2))
	far := paramsAt(0.001)
	if got := retained(far); got != deepest {
		t.Errorf("a Scratch retains %d B after a run at 0.001 FO4 but %d B after one at 2 FO4", got, deepest)
	}
	far = paramsAt(2)
	far.ExtraLoadUse = 1 << 20
	if got := retained(far); got != deepest {
		t.Errorf("a Scratch retains %d B after a run with 2^20 extra load-use cycles but %d B without", got, deepest)
	}
}
