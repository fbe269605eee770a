package core

import (
	"repro/internal/cacti"
	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// StructChoice names one candidate capacity configuration in the Figure 7
// search space.
type StructChoice struct {
	DL1KB  int
	L2KB   int
	IntWin int
	FPWin  int
}

// apply builds the machine variant for a candidate.
func (c StructChoice) apply(m config.Machine) config.Machine {
	m.Structures.DL1.CapacityBytes = c.DL1KB << 10
	m.Structures.L2.CapacityBytes = c.L2KB << 10
	m.IntWindow = c.IntWin
	m.FPWindow = c.FPWin
	m.Structures.Window = cacti.CAMConfig{
		Entries:        c.IntWin + c.FPWin,
		TagBits:        9,
		BroadcastPorts: m.IntIssue,
	}
	return m
}

// StructOptPoint is one clock point of Figure 7: the best capacity
// configuration found and its performance versus the fixed baseline.
type StructOptPoint struct {
	Useful       float64
	Best         StructChoice
	BestBIPS     float64 // all-benchmark harmonic mean with optimal capacities
	BaselineBIPS float64 // same clock, Alpha 21264 capacities
	Timing       config.Timing
}

// StructureOptimization reproduces Figure 7's methodology: at each clock
// point, search the capacity space structure by structure (each candidate
// re-derives its access latency through the cacti model, so bigger means
// slower), pick the configuration with the best harmonic-mean performance,
// and compare against the fixed Alpha 21264 capacities. The search is
// coordinate descent from the baseline — vary the level-1 data cache, then
// the level-2 cache, then the issue window, keeping the best of each —
// which is how the paper describes its sensitivity-curve approach. The
// descent itself is inherently sequential (each step depends on the last
// winner), but every candidate evaluation fans its benchmark simulations
// out on the worker pool.
func StructureOptimization(cfg SweepConfig) []StructOptPoint {
	cfg.fill()
	traces := cfg.traces()

	eval := func(m config.Machine, useful float64) float64 {
		c := cfg
		c.Machine = m
		pt := runPoint(c, useful, traces, nil)
		return pt.AllBIPS
	}

	base := cfg.Machine
	baseChoice := StructChoice{
		DL1KB:  base.Structures.DL1.CapacityBytes >> 10,
		L2KB:   base.Structures.L2.CapacityBytes >> 10,
		IntWin: base.IntWindow,
		FPWin:  base.FPWindow,
	}
	winPairs := [][2]int{{20, 15}, {32, 24}, {64, 48}}
	dims := []struct {
		set        func(StructChoice, int) StructChoice
		candidates []int
	}{
		{func(c StructChoice, v int) StructChoice { c.DL1KB = v; return c }, []int{16, 32, 64, 128}},
		{func(c StructChoice, v int) StructChoice { c.L2KB = v; return c }, []int{512, 1024, 2048}},
		{func(c StructChoice, v int) StructChoice {
			c.IntWin, c.FPWin = winPairs[v][0], winPairs[v][1]
			return c
		}, []int{0, 1, 2}},
	}

	var out []StructOptPoint
	for _, useful := range cfg.UsefulGrid {
		baseline := eval(base, useful)

		// Each later dimension revisits the winner so far; the map runs
		// every distinct choice once per clock point. The baseline is not
		// an entry: apply sizes the window CAM at IntWin+FPWin entries,
		// more than the 21264's, so baseChoice.apply(base) is not base.
		bips := map[StructChoice]float64{}
		best, bestBIPS := baseChoice, baseline
		for _, d := range dims {
			from := best
			for _, v := range d.candidates {
				choice := d.set(from, v)
				b, ok := bips[choice]
				if !ok {
					b = eval(choice.apply(base), useful)
					bips[choice] = b
				}
				if b > bestBIPS {
					best, bestBIPS = choice, b
				}
			}
		}

		clk := fo4.Clock{Useful: useful, Overhead: cfg.Overhead}
		out = append(out, StructOptPoint{
			Useful:       useful,
			Best:         best,
			BestBIPS:     bestBIPS,
			BaselineBIPS: baseline,
			Timing:       best.apply(base).Resolve(clk),
		})
	}
	return out
}

// Cray1SComparison runs the Section 4.2 what-if: the in-order superscalar
// with a Cray-1S-style memory system (no caches, flat memory), returning
// the integer-benchmark sweep. The paper finds the optimum moves to 11 FO4
// of useful logic per stage.
func Cray1SComparison(cfg SweepConfig) SweepResult {
	cfg.Machine = config.Cray1SMemorySystem()
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = trace.ByGroup(trace.Integer)
	}
	return DepthSweep(cfg)
}

// PipeliningLimit quantifies Section 7's conclusion that deeper pipelining
// can contribute at most about another factor of two: the ratio of the
// optimal integer BIPS to the BIPS at a 21264-depth pipeline (t_useful
// 17.4 FO4 class, approximated by the shallowest grid point).
func PipeliningLimit(r SweepResult) float64 {
	series := r.GroupSeries(trace.Integer)
	best := series[metrics.ArgMax(series)]
	shallow := series[len(series)-1] // largest t_useful in the grid
	return best / shallow
}
