package experiments

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// Small options keep this suite quick; the core package asserts the
// science at larger sizes — here we check the drivers wire up correctly
// and render sensibly.
var opts = Options{Instructions: 15000}

func TestFigure1Driver(t *testing.T) {
	f := RunFigure1()
	if len(f.Rows) != 7 {
		t.Fatalf("Figure 1 has %d rows, want 7", len(f.Rows))
	}
	if f.Rows[0].PeriodFO4 < 80 || f.Rows[0].PeriodFO4 > 90 {
		t.Errorf("1990 period = %.1f FO4, want ~84", f.Rows[0].PeriodFO4)
	}
	out := f.Render()
	for _, want := range []string{"Figure 1", "i486DX", "Pentium 4", "7.8 FO4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3Driver(t *testing.T) {
	tab := RunTable3()
	if len(tab.Useful) != 15 {
		t.Fatalf("Table 3 has %d columns, want 15", len(tab.Useful))
	}
	// Spot-check published cells: int mult is 21 cycles at 6 FO4.
	if got := tab.Rows[4].Exec[1]; got != 21 {
		t.Errorf("int mult at 6 FO4 = %d, want 21", got)
	}
	if got := tab.Alpha.Exec[1]; got != 7 {
		t.Errorf("Alpha int mult = %d, want 7", got)
	}
	out := tab.Render()
	for _, want := range []string{"DL1", "Issue window", "FP sqrt", "Alpha(17.4)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDepthSweepDrivers(t *testing.T) {
	for name, run := range map[string]func(Options) DepthSweepResult{
		"4a": RunFigure4a, "4b": RunFigure4b, "5": RunFigure5,
	} {
		res := run(opts)
		if len(res.Sweep.Points) != 15 {
			t.Errorf("%s: %d points, want 15", name, len(res.Sweep.Points))
		}
		out := res.Render()
		if !strings.Contains(out, "optima") {
			t.Errorf("%s: render missing optima line", name)
		}
	}
	// 4a must actually run without overhead: at equal useful FO4 its
	// frequency is higher than 4b's.
	a := RunFigure4a(opts).Sweep
	b := RunFigure4b(opts).Sweep
	if a.Points[0].FreqHz <= b.Points[0].FreqHz {
		t.Error("Figure 4a (no overhead) not faster-clocked than 4b at t=2")
	}
}

func TestHeadlineDriver(t *testing.T) {
	h := HeadlineOf(RunFigure5(opts))
	if h.IntPeriod != h.IntUseful+1.8 {
		t.Errorf("period arithmetic broken: %v vs %v+1.8", h.IntPeriod, h.IntUseful)
	}
	if h.IntFreqGHz < 2 || h.IntFreqGHz > 6 {
		t.Errorf("headline frequency = %.2f GHz, implausible", h.IntFreqGHz)
	}
	if !strings.Contains(h.Render(), "GHz") {
		t.Error("headline render missing frequency")
	}
}

func TestFigure8Driver(t *testing.T) {
	f := RunFigure8(opts)
	if len(f.Sweeps) != 3 {
		t.Fatalf("want 3 loop sweeps, got %d", len(f.Sweeps))
	}
	for _, s := range f.Sweeps {
		if len(s.Points) != 16 {
			t.Errorf("%v: %d points, want 16 (0..15)", s.Loop, len(s.Points))
		}
	}
	if !strings.Contains(f.Render(), "issue-wakeup") {
		t.Error("render missing loop name")
	}
}

func TestFigure11Driver(t *testing.T) {
	f := RunFigure11(opts)
	if len(f.Points) != 10 || len(f.Naive) != 10 {
		t.Fatalf("want 10 window points, got %d/%d", len(f.Points), len(f.Naive))
	}
	if f.Naive[9].RelativeIPC[trace.Integer] >= f.Points[9].RelativeIPC[trace.Integer] {
		t.Error("naive pipelining not worse than segmentation at 10 stages")
	}
	if !strings.Contains(f.Render(), "10-stage loss") {
		t.Error("render missing summary")
	}
}

func TestSelectAndCrayDrivers(t *testing.T) {
	sel := RunSegmentedSelect(opts)
	if r := sel.Res.RelativeIPC[trace.Integer]; r <= 0 || r >= 1.05 {
		t.Errorf("select relative IPC = %v, implausible", r)
	}
	cray := RunCray1S(opts)
	if len(cray.Sweep.Points) != 15 {
		t.Errorf("cray sweep has %d points", len(cray.Sweep.Points))
	}
	if !strings.Contains(cray.Render(), "Cray-1S") {
		t.Error("cray render missing title")
	}
}

func TestTable1Driver(t *testing.T) {
	// Coarse sweep keeps this quick; the latch package tests assert the
	// measured values tightly.
	tab := RunTable1(6.0)
	if tab.Latch.OverheadFO4 <= 0.3 || tab.Latch.OverheadFO4 > 2 {
		t.Errorf("latch overhead = %v FO4, implausible", tab.Latch.OverheadFO4)
	}
	out := tab.Render()
	for _, want := range []string{"Table 1", "latch overhead", "Appendix A"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure7DriverSmall(t *testing.T) {
	small := opts
	f := RunFigure7(small)
	if len(f.Points) == 0 {
		t.Fatal("no Figure 7 points")
	}
	for _, p := range f.Points {
		if p.BestBIPS < p.BaselineBIPS {
			t.Errorf("t=%v: optimization made things worse", p.Useful)
		}
	}
	if !strings.Contains(f.Render(), "mean gain") {
		t.Error("render missing mean gain")
	}
}

func TestFigure6DriverSmall(t *testing.T) {
	f := RunFigure6(opts)
	if len(f.Sweeps) != 7 {
		t.Fatalf("want 7 overhead sweeps, got %d", len(f.Sweeps))
	}
	// Zero-overhead BIPS must dominate every positive-overhead curve.
	for i := 1; i < len(f.Sweeps); i++ {
		for j := range f.Sweeps[0].Points {
			if f.Sweeps[i].Points[j].GroupBIPS[trace.Integer] >
				f.Sweeps[0].Points[j].GroupBIPS[trace.Integer] {
				t.Fatalf("overhead %v beat zero overhead at point %d",
					f.OverheadsFO4[i], j)
			}
		}
	}
}

func TestWireStudyDriver(t *testing.T) {
	w := RunWireStudy(opts)
	if len(w.Without.Points) != len(w.With.Points) {
		t.Fatal("mismatched sweep lengths")
	}
	// Wires only ever cost performance.
	for i := range w.Without.Points {
		base := w.Without.Points[i].GroupBIPS[trace.Integer]
		wired := w.With.Points[i].GroupBIPS[trace.Integer]
		if wired > base*1.001 {
			t.Errorf("t=%v: wires improved BIPS (%.3f > %.3f)",
				w.Without.Points[i].Useful, wired, base)
		}
	}
	// And the optimum stays in the same plateau (the paper's conjecture).
	a := w.Without.NearOptimalUseful(trace.Integer, 0.02)
	b := w.With.NearOptimalUseful(trace.Integer, 0.02)
	if b < a-2 || b > a+3 {
		t.Errorf("wires moved the optimum from %v to %v FO4", a, b)
	}
	if !strings.Contains(w.Render(), "with wires") {
		t.Error("render missing comparison")
	}
}

func TestStructureSummaryDriver(t *testing.T) {
	s := RunStructureSummary()
	if len(s.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(s.Rows))
	}
	byName := map[string]StructureRow{}
	for _, r := range s.Rows {
		byName[r.Name] = r
		if r.FO4 <= 0 || r.Ps <= 0 || r.AreaMm2 <= 0 || r.EnergyPJ <= 0 {
			t.Errorf("%s: non-positive physical quantity: %+v", r.Name, r)
		}
	}
	if byName["L2 2MB/2w"].AreaMm2 <= byName["DL1 64KB/2w"].AreaMm2 {
		t.Error("L2 not larger than DL1")
	}
	if !strings.Contains(s.Render(), "pJ/read") {
		t.Error("render missing energy column")
	}
}

// TestRenderWorkerInvariance pins the engine's determinism guarantee at
// the driver level: the rendered report — the exact bytes a user sees —
// must be identical on the serial path and on a many-worker pool.
func TestRenderWorkerInvariance(t *testing.T) {
	o := Options{Instructions: 8000, Bench: "m"} // several benchmarks across all groups
	o.Workers = 1
	serial := RunFigure5(o).Render()
	o.Workers = 8
	parallel := RunFigure5(o).Render()
	if serial != parallel {
		t.Errorf("Workers=8 render differs from Workers=1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestBenchFilter(t *testing.T) {
	if got := len(MatchBenchmarks("")); got != 18 {
		t.Errorf("empty filter matched %d profiles, want the whole suite (18)", got)
	}
	if got := len(MatchBenchmarks("176.gcc")); got != 1 {
		t.Errorf("exact name matched %d profiles, want 1", got)
	}
	if got := len(MatchBenchmarks("GCC")); got != 1 {
		t.Errorf("filter should be case-insensitive, matched %d", got)
	}
	if got := len(MatchBenchmarks("zzz-nothing")); got != 0 {
		t.Errorf("bogus filter matched %d profiles", got)
	}

	o := Options{Instructions: 5000, Bench: "176.gcc"}
	res := RunFigure5(o)
	for _, p := range res.Sweep.Points {
		if len(p.PerBench) != 1 || p.PerBench[0].Name != "176.gcc" {
			t.Fatalf("Bench filter leaked: point ran %d benchmarks", len(p.PerBench))
		}
	}
	// Group-restricted figures intersect the filter with their group.
	g := trace.Integer
	if got := (Options{Bench: "171.swim"}).benchmarks(&g); got == nil || len(got) != 0 {
		t.Errorf("vector benchmark matched the integer group, got %v (want a non-nil empty set: nil means the full suite)", got)
	}
}
