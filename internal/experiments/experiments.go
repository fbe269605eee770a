// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the underlying experiment through
// the core library and returns a structured result that knows how to
// render itself as text in the shape the paper reports (rows for tables,
// series for figures). The cmd/ binaries and the benchmark harness share
// these drivers, so the numbers in EXPERIMENTS.md are regenerated by the
// same code paths the tests assert against.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fo4"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Options sizes an experiment run. The zero value gives fast,
// test-friendly runs; Full gives publication-quality ones.
type Options struct {
	Instructions int
	Seed         uint64

	// Workers sizes the simulation worker pool (see core.SweepConfig):
	// 0 means GOMAXPROCS, 1 forces the serial path.
	Workers int

	// Bench restricts the suite to benchmarks whose names contain this
	// case-insensitive substring (e.g. "gcc" or "vpr"). Empty means the
	// experiment's full benchmark set. See MatchBenchmarks.
	Bench string

	// Obs, when non-nil, records telemetry for the run: every driver
	// opens a study span named after its figure/table, and the engine
	// underneath feeds task durations and cache counters. Telemetry is
	// observation-only — results are identical with Obs nil or set.
	Obs *obs.Recorder
}

// Full is the options preset for the cmd/ binaries.
var Full = Options{Instructions: 120000}

func (o Options) fill() Options {
	if o.Instructions == 0 {
		o.Instructions = 40000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) sweepConfig(m config.Machine) core.SweepConfig {
	return core.SweepConfig{
		Machine:      m,
		Overhead:     fo4.PaperOverhead,
		Instructions: o.Instructions,
		Seed:         o.Seed,
		Benchmarks:   o.benchmarks(nil),
		Workers:      o.Workers,
		Obs:          o.Obs,
	}
}

// MatchBenchmarks returns the SPEC 2000 profiles whose names contain the
// case-insensitive substring filter; an empty filter matches the whole
// suite. Callers that accept user input should reject an empty match
// before running anything.
func MatchBenchmarks(filter string) []trace.Profile {
	all := trace.SPEC2000()
	if filter == "" {
		return all
	}
	var out []trace.Profile
	for _, p := range all {
		if strings.Contains(strings.ToLower(p.Name), strings.ToLower(filter)) {
			out = append(out, p)
		}
	}
	return out
}

// MatchGroup is MatchBenchmarks narrowed to one benchmark group: the
// profiles of group g whose names contain filter. The result is never
// nil, even when nothing matches, because core.SweepConfig reads a nil
// benchmark set as the full suite.
func MatchGroup(filter string, g trace.Group) []trace.Profile {
	out := []trace.Profile{}
	for _, p := range MatchBenchmarks(filter) {
		if p.Group == g {
			out = append(out, p)
		}
	}
	return out
}

// benchmarks resolves the benchmark set for a run: the full suite — or
// the group g when non-nil — narrowed by the Bench filter. A nil return
// (no filter, no group) lets core.SweepConfig default to the full
// suite; a group run gets MatchGroup's set, possibly empty.
func (o Options) benchmarks(g *trace.Group) []trace.Profile {
	if g != nil {
		return MatchGroup(o.Bench, *g)
	}
	if o.Bench == "" {
		return nil
	}
	return MatchBenchmarks(o.Bench)
}

// Figure1 is the historical clock-period dataset.
type Figure1 struct {
	Rows []struct {
		Name      string
		Year      int
		TechNm    float64
		FreqMHz   float64
		PeriodFO4 float64
	}
	OptimalPeriodFO4 float64
}

// RunFigure1 computes Figure 1 from the Intel processor history.
func RunFigure1() Figure1 {
	var f Figure1
	for _, p := range fo4.IntelHistory {
		f.Rows = append(f.Rows, struct {
			Name      string
			Year      int
			TechNm    float64
			FreqMHz   float64
			PeriodFO4 float64
		}{p.Name, p.Year, p.Tech.Nanometers, p.FreqHz / 1e6, p.PeriodFO4()})
	}
	f.OptimalPeriodFO4 = fo4.OptimalClockPeriodFO4
	return f
}

// Render prints the figure as a table.
func (f Figure1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Intel clock periods in FO4 (optimum line at %.1f FO4)\n", f.OptimalPeriodFO4)
	fmt.Fprintf(&b, "%-24s %5s %8s %9s %11s\n", "processor", "year", "tech", "freq", "period")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-24s %5d %6.0fnm %6.0fMHz %8.1f FO4\n",
			r.Name, r.Year, r.TechNm, r.FreqMHz, r.PeriodFO4)
	}
	return b.String()
}

// DepthSweepResult wraps a core sweep with rendering for Figures 4 and 5.
type DepthSweepResult struct {
	Title string
	Sweep core.SweepResult
}

// RunFigure4a runs the in-order sweep without clocking overhead.
func RunFigure4a(o Options) DepthSweepResult {
	o = o.fill()
	defer o.Obs.Study("figure4a")()
	cfg := o.sweepConfig(config.InOrder7Stage())
	cfg.Overhead = fo4.Overhead{}
	return DepthSweepResult{
		Title: "Figure 4a: in-order pipeline, no latch overhead",
		Sweep: core.DepthSweep(cfg),
	}
}

// RunFigure4b runs the in-order sweep with the Table 1 overhead.
func RunFigure4b(o Options) DepthSweepResult {
	o = o.fill()
	defer o.Obs.Study("figure4b")()
	return DepthSweepResult{
		Title: "Figure 4b: in-order pipeline, 1.8 FO4 overhead",
		Sweep: core.DepthSweep(o.sweepConfig(config.InOrder7Stage())),
	}
}

// RunFigure5 runs the dynamically scheduled sweep with overhead.
func RunFigure5(o Options) DepthSweepResult {
	o = o.fill()
	defer o.Obs.Study("figure5")()
	return DepthSweepResult{
		Title: "Figure 5: out-of-order pipeline, 1.8 FO4 overhead",
		Sweep: core.DepthSweep(o.sweepConfig(config.Alpha21264())),
	}
}

// Render prints the BIPS series per group, like the figures' y-axes.
func (d DepthSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, d.Title)
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s\n", "t_useful", "integer", "vectorFP", "nonvecFP", "all")
	for _, p := range d.Sweep.Points {
		fmt.Fprintf(&b, "%6.0f   %9.3f %9.3f %9.3f %9.3f\n", p.Useful,
			p.GroupBIPS[trace.Integer], p.GroupBIPS[trace.VectorFP],
			p.GroupBIPS[trace.NonVectorFP], p.AllBIPS)
	}
	fmt.Fprintf(&b, "optima (BIPS argmax): integer %.0f, vector %.0f, non-vector %.0f, all %.0f FO4\n",
		d.Sweep.OptimalUseful(trace.Integer), d.Sweep.OptimalUseful(trace.VectorFP),
		d.Sweep.OptimalUseful(trace.NonVectorFP), d.Sweep.OptimalUsefulAll())
	return b.String()
}

// Figure6Result is the overhead-sensitivity family of integer curves.
type Figure6Result struct {
	OverheadsFO4 []float64
	Sweeps       []core.SweepResult
}

// RunFigure6 sweeps the integer benchmarks under overheads 0..6 FO4.
func RunFigure6(o Options) Figure6Result {
	o = o.fill()
	defer o.Obs.Study("figure6")()
	cfg := o.sweepConfig(config.Alpha21264())
	g := trace.Integer
	cfg.Benchmarks = o.benchmarks(&g)
	ovh := []float64{0, 1, 2, 3, 4, 5, 6}
	return Figure6Result{OverheadsFO4: ovh, Sweeps: core.OverheadSensitivity(cfg, ovh)}
}

// Render prints one BIPS column per overhead value.
func (f Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: integer BIPS vs clock period for overhead values (FO4)")
	fmt.Fprintf(&b, "%-8s", "t_useful")
	for _, o := range f.OverheadsFO4 {
		fmt.Fprintf(&b, " ovh=%3.0f", o)
	}
	fmt.Fprintln(&b)
	for i, p := range f.Sweeps[0].Points {
		fmt.Fprintf(&b, "%6.0f  ", p.Useful)
		for _, s := range f.Sweeps {
			fmt.Fprintf(&b, " %7.3f", s.Points[i].GroupBIPS[trace.Integer])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "optima per overhead:")
	for _, s := range f.Sweeps {
		fmt.Fprintf(&b, " %.0f", s.NearOptimalUseful(trace.Integer, 0.02))
	}
	fmt.Fprintln(&b, " FO4 useful")
	return b.String()
}

// Figure7Result is the structure-capacity optimization outcome.
type Figure7Result struct {
	Points []core.StructOptPoint
}

// RunFigure7 runs the capacity optimization on a reduced grid (the search
// multiplies simulation cost; the grid still brackets the optimum).
func RunFigure7(o Options) Figure7Result {
	o = o.fill()
	defer o.Obs.Study("figure7")()
	cfg := o.sweepConfig(config.Alpha21264())
	cfg.UsefulGrid = []float64{2, 4, 6, 8, 10, 12, 16}
	return Figure7Result{Points: core.StructureOptimization(cfg)}
}

// Render prints the optimized-vs-baseline comparison and chosen capacities.
func (f Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: structure capacities optimized per clock (all-benchmark BIPS)")
	fmt.Fprintf(&b, "%-8s %9s %9s %7s %28s\n", "t_useful", "baseline", "optimized", "gain", "best config (latency cyc)")
	var gainSum float64
	for _, p := range f.Points {
		gain := p.BestBIPS / p.BaselineBIPS
		gainSum += gain
		fmt.Fprintf(&b, "%6.0f   %9.3f %9.3f %6.1f%%  DL1 %3dKB/%d L2 %4dKB/%d win %d+%d/%d\n",
			p.Useful, p.BaselineBIPS, p.BestBIPS, (gain-1)*100,
			p.Best.DL1KB, p.Timing.DL1, p.Best.L2KB, p.Timing.L2,
			p.Best.IntWin, p.Best.FPWin, p.Timing.Window)
	}
	fmt.Fprintf(&b, "mean gain: %.1f%%\n", (gainSum/float64(len(f.Points))-1)*100)
	return b.String()
}

// Figure8Result is the critical-loop sensitivity family.
type Figure8Result struct {
	Sweeps []core.LoopSweep
}

// RunFigure8 stretches each critical loop by up to 15 cycles at the Alpha
// 21264's own latencies.
func RunFigure8(o Options) Figure8Result {
	o = o.fill()
	defer o.Obs.Study("figure8")()
	return Figure8Result{Sweeps: core.CriticalLoopSensitivity(o.sweepConfig(config.Alpha21264()), 15)}
}

// Render prints relative integer IPC per loop, Figure 8's y-axis.
func (f Figure8Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: integer IPC relative to Alpha 21264 when one loop is stretched")
	fmt.Fprintf(&b, "%-7s", "+cycles")
	for _, s := range f.Sweeps {
		fmt.Fprintf(&b, " %17s", s.Loop)
	}
	fmt.Fprintln(&b)
	for i := range f.Sweeps[0].Points {
		fmt.Fprintf(&b, "%5d  ", f.Sweeps[0].Points[i].Extra)
		for _, s := range f.Sweeps {
			fmt.Fprintf(&b, " %17.3f", s.Points[i].RelativeIPC[trace.Integer])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure11Result is the segmented-wakeup depth sweep.
type Figure11Result struct {
	Points []core.WindowPoint
	Naive  []core.WindowPoint // Stark-style pessimistic pipelining for contrast
}

// RunFigure11 pipelines the 32-entry window's wakeup from 1 to 10 stages.
func RunFigure11(o Options) Figure11Result {
	o = o.fill()
	defer o.Obs.Study("figure11")()
	cfg := o.sweepConfig(config.Alpha21264())
	return Figure11Result{
		Points: core.SegmentedWindowSweep(cfg, 10, false),
		Naive:  core.SegmentedWindowSweep(cfg, 10, true),
	}
}

// FPRelative returns the harmonic FP (vector + non-vector) relative IPC of
// a window point.
func FPRelative(p core.WindowPoint) float64 {
	return (p.RelativeIPC[trace.VectorFP] + p.RelativeIPC[trace.NonVectorFP]) / 2
}

// Render prints relative IPC versus window pipeline depth.
func (f Figure11Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 11: IPC vs instruction-window pipeline depth (32-entry window)")
	fmt.Fprintf(&b, "%-7s %9s %9s %14s\n", "stages", "integer", "fp", "naive integer")
	for i, p := range f.Points {
		fmt.Fprintf(&b, "%5d   %9.3f %9.3f %14.3f\n", p.Stages,
			p.RelativeIPC[trace.Integer], FPRelative(p), f.Naive[i].RelativeIPC[trace.Integer])
	}
	last := f.Points[len(f.Points)-1]
	fmt.Fprintf(&b, "10-stage loss: integer %.1f%%, fp %.1f%% (paper: 11%% and 5%%)\n",
		(1-last.RelativeIPC[trace.Integer])*100, (1-FPRelative(last))*100)
	return b.String()
}

// SelectResult is the Section 5.2 partitioned-selection evaluation.
type SelectResult struct {
	Res core.SelectResult
}

// RunSegmentedSelect runs the Figure 12 design against the conventional
// single-cycle window.
func RunSegmentedSelect(o Options) SelectResult {
	o = o.fill()
	defer o.Obs.Study("segmented-select")()
	return SelectResult{Res: core.SegmentedSelect(o.sweepConfig(config.Alpha21264()))}
}

// Render prints the relative IPC of the partitioned-selection design.
func (s SelectResult) Render() string {
	fp := (s.Res.RelativeIPC[trace.VectorFP] + s.Res.RelativeIPC[trace.NonVectorFP]) / 2
	return fmt.Sprintf(
		"Section 5.2: 4-stage window, fan-in-16 select, pre-select 5/2/1\n"+
			"relative IPC: integer %.3f (paper −4%%), fp %.3f (paper −1%%)\n",
		s.Res.RelativeIPC[trace.Integer], fp)
}

// CrayResult is the Section 4.2 memory-system comparison.
type CrayResult struct {
	Sweep core.SweepResult
}

// RunCray1S sweeps the in-order machine with the Cray-1S memory system.
func RunCray1S(o Options) CrayResult {
	o = o.fill()
	defer o.Obs.Study("cray1s")()
	return CrayResult{Sweep: core.Cray1SComparison(o.sweepConfig(config.Alpha21264()))}
}

// Render prints the integer series and where its plateau lies.
func (c CrayResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section 4.2: in-order pipeline with Cray-1S memory (no caches, flat 12-cycle memory)")
	fmt.Fprintf(&b, "%-8s %9s\n", "t_useful", "integer")
	for _, p := range c.Sweep.Points {
		fmt.Fprintf(&b, "%6.0f   %9.3f\n", p.Useful, p.GroupBIPS[trace.Integer])
	}
	fmt.Fprintf(&b, "optimum %.0f FO4 (paper: 11 FO4; the curve is a memory-dominated plateau)\n",
		c.Sweep.OptimalUseful(trace.Integer))
	return b.String()
}

// Headline is the Section 7 summary: optimal clock periods and frequencies.
type Headline struct {
	IntUseful    float64
	IntPeriod    float64
	IntFreqGHz   float64
	VecUseful    float64
	VecPeriod    float64
	VecFreqGHz   float64
	PipelineGain float64 // remaining speedup from deeper pipelining
}

// HeadlineOf derives the Section 7 numbers from a Figure 5 sweep.
func HeadlineOf(fig5 DepthSweepResult) Headline {
	s := fig5.Sweep
	intU := s.NearOptimalUseful(trace.Integer, 0.02)
	vecU := s.NearOptimalUseful(trace.VectorFP, 0.02)
	h := Headline{
		IntUseful: intU, VecUseful: vecU,
		IntPeriod: intU + fo4.PaperOverhead.Total(),
		VecPeriod: vecU + fo4.PaperOverhead.Total(),
	}
	h.IntFreqGHz = fo4.Clock{Useful: intU, Overhead: fo4.PaperOverhead}.FrequencyHz(fo4.Tech100nm) / 1e9
	h.VecFreqGHz = fo4.Clock{Useful: vecU, Overhead: fo4.PaperOverhead}.FrequencyHz(fo4.Tech100nm) / 1e9
	h.PipelineGain = core.PipeliningLimit(s)
	return h
}

// Render prints the headline result.
func (h Headline) Render() string {
	return fmt.Sprintf(
		"Section 7 headline: integer optimum %.0f FO4 useful → %.1f FO4 period (%.1f GHz at 100nm);\n"+
			"vector optimum %.0f FO4 useful → %.1f FO4 period (%.1f GHz); remaining pipelining gain %.2fx\n",
		h.IntUseful, h.IntPeriod, h.IntFreqGHz, h.VecUseful, h.VecPeriod, h.VecFreqGHz, h.PipelineGain)
}
