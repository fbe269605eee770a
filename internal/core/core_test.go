package core

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/trace"
)

// The full Figure 5 sweep is the most expensive fixture; share it.
var (
	fig5Once sync.Once
	fig5     SweepResult
)

func testConfig() SweepConfig {
	return SweepConfig{
		Machine:      config.Alpha21264(),
		Overhead:     fo4.PaperOverhead,
		Instructions: 40000,
	}
}

func figure5(t *testing.T) SweepResult {
	t.Helper()
	fig5Once.Do(func() {
		fig5 = DepthSweep(testConfig())
	})
	return fig5
}

func TestFigure5IntegerOptimumAtSixFO4(t *testing.T) {
	// The headline result: integer performance peaks at 6 FO4 of useful
	// logic per stage. The raw argmax can land on the t=9 cycle-count
	// quantization sawtooth (where the 17.4-FO4 structures all drop from
	// 3 to 2 cycles), so the optimum is read plateau-tolerantly, exactly
	// as the paper reads its own flat curves.
	s := figure5(t)
	opt := s.NearOptimalUseful(trace.Integer, 0.02)
	if opt < 5 || opt > 7 {
		t.Errorf("integer optimum = %v FO4, want 6 ± 1", opt)
	}
	series := s.GroupSeries(trace.Integer)
	best := series[0]
	for _, v := range series {
		if v > best {
			best = v
		}
	}
	// And the 6 FO4 point must effectively be the peak.
	at6 := s.Points[4].GroupBIPS[trace.Integer] // grid starts at 2
	if at6 < 0.97*best {
		t.Errorf("BIPS at 6 FO4 (%.3f) not within 3%% of the peak (%.3f)", at6, best)
	}
}

func TestFigure5VectorOptimumDeeper(t *testing.T) {
	// Vector FP codes prefer deeper pipelines: the paper finds 4 FO4; our
	// reproduction's plateau includes 4 and its argmax sits at 4-5 FO4,
	// at or below the integer optimum.
	s := figure5(t)
	vec := s.NearOptimalUseful(trace.VectorFP, 0.03)
	if vec < 3 || vec > 6 {
		t.Errorf("vector optimum = %v FO4, want in [3, 6] (paper: 4)", vec)
	}
	if intOpt := s.OptimalUseful(trace.Integer); vec > intOpt {
		t.Errorf("vector optimum (%v) shallower than integer (%v)", vec, intOpt)
	}
	// The 4 FO4 point is within a few percent of the vector peak.
	series := s.GroupSeries(trace.VectorFP)
	best := series[0]
	for _, v := range series {
		if v > best {
			best = v
		}
	}
	if at4 := s.Points[2].GroupBIPS[trace.VectorFP]; at4 < 0.95*best {
		t.Errorf("vector BIPS at 4 FO4 (%.3f) more than 5%% below peak (%.3f)", at4, best)
	}
}

func TestFigure5GroupOrdering(t *testing.T) {
	// Figure 5's levels: vector FP fastest, then integer, then non-vector
	// FP (each at its own optimum).
	s := figure5(t)
	max := func(g trace.Group) float64 {
		best := 0.0
		for _, v := range s.GroupSeries(g) {
			if v > best {
				best = v
			}
		}
		return best
	}
	vec, integer, nonvec := max(trace.VectorFP), max(trace.Integer), max(trace.NonVectorFP)
	if !(vec > integer && integer > nonvec) {
		t.Errorf("group ordering violated: vector %.2f, integer %.2f, non-vector %.2f",
			vec, integer, nonvec)
	}
}

func TestFigure5AllBenchmarkOptimum(t *testing.T) {
	// The dashed all-benchmark curve also peaks at ~6 FO4.
	s := figure5(t)
	opt := s.NearOptimalUseful2All()
	if opt < 4 || opt > 8 {
		t.Errorf("all-benchmark optimum = %v FO4, want ~6", opt)
	}
}

// NearOptimalUseful2All is a test helper giving the plateau-tolerant
// overall optimum.
func (r SweepResult) NearOptimalUseful2All() float64 {
	series := r.AllSeries()
	best := series[0]
	for _, v := range series {
		if v > best {
			best = v
		}
	}
	for i, p := range r.Points {
		if series[i] >= 0.98*best {
			return p.Useful
		}
	}
	return r.Points[0].Useful
}

func TestHeadlineFrequencies(t *testing.T) {
	// Section 7: the optimal integer clock period is ~7.8 FO4, i.e.
	// ~3.6 GHz at 100nm.
	s := figure5(t)
	intOpt := s.NearOptimalUseful(trace.Integer, 0.02)
	period := intOpt + fo4.PaperOverhead.Total()
	if period < 6.8 || period > 8.8 {
		t.Errorf("optimal integer period = %.1f FO4, want ~7.8", period)
	}
	freq := fo4.Clock{Useful: intOpt, Overhead: fo4.PaperOverhead}.FrequencyHz(fo4.Tech100nm)
	if freq < 3.1e9 || freq > 4.1e9 {
		t.Errorf("optimal integer frequency = %.2f GHz, want ~3.6", freq/1e9)
	}
}

func TestPipeliningLimit(t *testing.T) {
	// Section 7: pipelining deeper than today's designs buys at most
	// about another factor of two — i.e., a finite, modest gain.
	s := figure5(t)
	gain := PipeliningLimit(s)
	if gain <= 1.0 || gain > 2.5 {
		t.Errorf("remaining pipelining gain = %.2fx, want in (1, 2.5]", gain)
	}
}

func TestFigure4aNoOverheadMonotonicDeepening(t *testing.T) {
	// Figure 4a: without latch overhead, performance keeps improving as
	// the pipeline deepens — the deepest point beats the shallowest —
	// but sub-linearly: halving t_useful from 8 to 4 gains integer codes
	// only ~20%, not 100%.
	cfg := testConfig()
	cfg.Machine = config.InOrder7Stage()
	cfg.Overhead = fo4.Overhead{}
	s := DepthSweep(cfg)
	series := s.GroupSeries(trace.Integer)
	if series[0] <= series[len(series)-1] {
		t.Errorf("no-overhead BIPS at t=2 (%.3f) not above t=16 (%.3f)", series[0], series[len(series)-1])
	}
	imp := series[2] / series[6] // t=4 vs t=8
	if imp < 1.0 || imp > 1.35 {
		t.Errorf("8→4 FO4 improvement = %.2f, want modest (paper: 1.18)", imp)
	}
}

func TestFigure4bInOrderOptimumInterior(t *testing.T) {
	// Figure 4b: with 1.8 FO4 overhead the in-order optimum is interior —
	// neither the deepest nor the shallowest point. (The paper reads 6
	// FO4; our in-order reproduction's plateau sits at 6-10, see
	// EXPERIMENTS.md.)
	cfg := testConfig()
	cfg.Machine = config.InOrder7Stage()
	s := DepthSweep(cfg)
	opt := s.NearOptimalUseful(trace.Integer, 0.02)
	if opt <= 2 || opt >= 16 {
		t.Errorf("in-order optimum = %v FO4, want interior", opt)
	}
	if opt > 10 {
		t.Errorf("in-order optimum = %v FO4, want ≤ 10 (paper: 6)", opt)
	}
}

func TestFigure6OptimumInsensitiveToOverhead(t *testing.T) {
	// Figure 6: for overheads from 1 to 5 FO4, the integer optimum stays
	// at ~6 FO4 of useful logic.
	cfg := testConfig()
	cfg.Benchmarks = trace.ByGroup(trace.Integer)
	cfg.UsefulGrid = []float64{3, 4, 5, 6, 7, 8, 10, 12}
	sweeps := OverheadSensitivity(cfg, []float64{1, 2, 3, 4, 5})
	for i, s := range sweeps {
		// The argmax drifts a little along the flat plateau (4..8 FO4),
		// but 6 FO4 stays within 4% of each curve's maximum — the paper's
		// insensitivity claim in plateau form.
		opt := s.NearOptimalUseful(trace.Integer, 0.02)
		if opt < 3 || opt > 8 {
			t.Errorf("overhead %d FO4: optimum = %v, want within the 6±2 plateau", i+1, opt)
		}
		series := s.GroupSeries(trace.Integer)
		best := series[0]
		for _, v := range series {
			if v > best {
				best = v
			}
		}
		at6 := series[3] // grid index of t=6
		if at6 < 0.96*best {
			t.Errorf("overhead %d FO4: BIPS at 6 FO4 (%.3f) more than 4%% below max (%.3f)", i+1, at6, best)
		}
	}
	// More overhead always means less absolute performance at the optimum.
	prev := -1.0
	for i, s := range sweeps {
		series := s.GroupSeries(trace.Integer)
		best := series[0]
		for _, v := range series {
			if v > best {
				best = v
			}
		}
		if prev > 0 && best >= prev {
			t.Errorf("peak BIPS did not fall when overhead grew to %d FO4", i+1)
		}
		prev = best
	}
}

func TestFigure8LoopOrdering(t *testing.T) {
	// Figure 8: IPC is most sensitive to the issue-wakeup loop, then
	// load-use, then branch misprediction.
	sweeps := CriticalLoopSensitivity(testConfig(), 8)
	get := func(l Loop) float64 {
		for _, s := range sweeps {
			if s.Loop == l {
				return s.Points[8].RelativeIPC[trace.Integer]
			}
		}
		t.Fatalf("missing loop %v", l)
		return 0
	}
	w, lu, b := get(IssueWakeup), get(LoadUse), get(BranchMispredict)
	if !(w < lu && lu < b) {
		t.Errorf("sensitivity ordering violated at +8 cycles: wakeup %.3f, load-use %.3f, mispredict %.3f", w, lu, b)
	}
	// All relative IPCs start at 1 and decline.
	for _, s := range sweeps {
		if r := s.Points[0].RelativeIPC[trace.Integer]; r < 0.999 || r > 1.001 {
			t.Errorf("%v: relative IPC at +0 = %v, want 1", s.Loop, r)
		}
		prev := 2.0
		for _, p := range s.Points {
			if p.RelativeIPC[trace.Integer] > prev*1.005 {
				t.Errorf("%v: relative IPC rose when the loop was stretched", s.Loop)
			}
			prev = p.RelativeIPC[trace.Integer]
		}
	}
}

func TestFigure11SegmentedWindow(t *testing.T) {
	// Figure 11: pipelining the 32-entry window's wakeup to 10 stages
	// costs integer codes ~11% and FP codes ~5% in the paper; our
	// reproduction lands in the same bands, with FP losing less than
	// integer, and shallow segmentations nearly free.
	pts := SegmentedWindowSweep(testConfig(), 10, false)
	if r := pts[0].RelativeIPC[trace.Integer]; r < 0.999 || r > 1.001 {
		t.Fatalf("1-stage relative IPC = %v, want 1", r)
	}
	two := pts[1].RelativeIPC[trace.Integer]
	if two < 0.96 {
		t.Errorf("2-stage window already costs %.1f%%; should be nearly free", (1-two)*100)
	}
	last := pts[9]
	intLoss := 1 - last.RelativeIPC[trace.Integer]
	fpLoss := 1 - (last.RelativeIPC[trace.VectorFP]+last.RelativeIPC[trace.NonVectorFP])/2
	if intLoss < 0.06 || intLoss > 0.25 {
		t.Errorf("10-stage integer loss = %.1f%%, want near the paper's 11%%", intLoss*100)
	}
	if fpLoss >= intLoss {
		t.Errorf("FP loss (%.1f%%) not below integer loss (%.1f%%)", fpLoss*100, intLoss*100)
	}
}

func TestNaivePipeliningMuchWorse(t *testing.T) {
	// Stark et al.: pipelining that breaks back-to-back issue costs far
	// more than segmentation at the same depth.
	seg := SegmentedWindowSweep(testConfig(), 4, false)
	naive := SegmentedWindowSweep(testConfig(), 4, true)
	s4 := seg[3].RelativeIPC[trace.Integer]
	n4 := naive[3].RelativeIPC[trace.Integer]
	if n4 >= s4 {
		t.Errorf("naive pipelining (%.3f) not worse than segmentation (%.3f)", n4, s4)
	}
	if n4 > 0.85 {
		t.Errorf("naive 4-deep pipelining only cost %.1f%%; expected a heavy loss", (1-n4)*100)
	}
}

func TestSegmentedSelectSmallLoss(t *testing.T) {
	// Section 5.2: the 4-stage, fan-in-16, pre-select-5/2/1 design loses
	// only a little IPC (paper: 4% integer, 1% FP), with FP losing less.
	res := SegmentedSelect(testConfig())
	intRel := res.RelativeIPC[trace.Integer]
	vecRel := res.RelativeIPC[trace.VectorFP]
	if intRel < 0.86 || intRel >= 1.0 {
		t.Errorf("integer relative IPC = %.3f, want a small loss (paper: 0.96)", intRel)
	}
	if vecRel < intRel {
		t.Errorf("vector FP (%.3f) lost more than integer (%.3f)", vecRel, intRel)
	}
}

func TestCray1SMemoryPlateau(t *testing.T) {
	// Section 4.2: with the Cray-1S memory system, performance is far
	// lower and nearly flat in clock — deeper pipelining cannot help a
	// memory-bottlenecked machine, and shallow pipelines around 11 FO4
	// remain within a whisker of the best point.
	cray := Cray1SComparison(testConfig())
	series := cray.GroupSeries(trace.Integer)
	best, worst := series[0], series[0]
	for _, v := range series {
		if v > best {
			best = v
		}
		if v < worst {
			worst = v
		}
	}
	if best/worst > 1.15 {
		t.Errorf("Cray curve spans %.2fx; expected a memory-dominated plateau", best/worst)
	}
	at11 := series[9] // grid 2..16 → index 9 is t=11
	if at11 < 0.95*best {
		t.Errorf("BIPS at 11 FO4 (%.3f) not within 5%% of best (%.3f)", at11, best)
	}
	// Far below the cached machine.
	cached := figure5(t)
	cachedBest := cached.GroupSeries(trace.Integer)[4]
	if best > cachedBest/2 {
		t.Errorf("Cray machine (%.3f) not well below cached machine (%.3f)", best, cachedBest)
	}
}

func TestStructureOptimizationHelps(t *testing.T) {
	// Figure 7: choosing capacities per clock never hurts, yields a
	// measurable average gain, and leaves the optimum at ~6 FO4.
	cfg := testConfig()
	cfg.UsefulGrid = []float64{4, 6, 8}
	pts := StructureOptimization(cfg)
	gain := 0.0
	for _, p := range pts {
		if p.BestBIPS < p.BaselineBIPS {
			t.Errorf("t=%v: optimized (%.3f) below baseline (%.3f)", p.Useful, p.BestBIPS, p.BaselineBIPS)
		}
		gain += p.BestBIPS / p.BaselineBIPS
	}
	gain /= float64(len(pts))
	if gain < 1.005 {
		t.Errorf("mean capacity-optimization gain = %.3f, want > 0.5%%", gain)
	}
}

func TestNearOptimalPrefersDeepPlateauEdge(t *testing.T) {
	r := SweepResult{Points: []SweepPoint{
		{Useful: 4, GroupBIPS: map[trace.Group]float64{trace.Integer: 0.99}},
		{Useful: 6, GroupBIPS: map[trace.Group]float64{trace.Integer: 1.00}},
		{Useful: 8, GroupBIPS: map[trace.Group]float64{trace.Integer: 0.90}},
	}}
	if got := r.NearOptimalUseful(trace.Integer, 0.02); got != 4 {
		t.Errorf("NearOptimalUseful = %v, want 4 (deepest within 2%%)", got)
	}
	if got := r.OptimalUseful(trace.Integer); got != 6 {
		t.Errorf("OptimalUseful = %v, want 6", got)
	}
}

func TestPaperGrid(t *testing.T) {
	g := PaperGrid()
	if len(g) != 15 || g[0] != 2 || g[14] != 16 {
		t.Errorf("PaperGrid = %v, want 2..16", g)
	}
}
