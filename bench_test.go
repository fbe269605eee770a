package repro_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its table or figure
// through the same experiment driver the cmd/ binaries use and reports the
// headline quantity of that experiment as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation and prints
// the numbers next to the timings. EXPERIMENTS.md records a full run.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// benchOpts keeps each benchmark iteration affordable; the cmd/ binaries
// run the same drivers at full size.
var benchOpts = experiments.Options{Instructions: 20000}

func BenchmarkFigure1ClockHistory(b *testing.B) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure1()
		last = f.Rows[len(f.Rows)-1].PeriodFO4
	}
	b.ReportMetric(last, "FO4-period-2002")
}

func BenchmarkTable1LatchOverhead(b *testing.B) {
	b.ReportAllocs()
	var ovh float64
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable1(4.0)
		ovh = t.Latch.OverheadFO4
	}
	b.ReportMetric(ovh, "latch-FO4")
}

func BenchmarkTable3AccessLatencies(b *testing.B) {
	b.ReportAllocs()
	var dl1 int
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable3()
		dl1 = t.Rows[4].DL1 // t_useful = 6
	}
	b.ReportMetric(float64(dl1), "DL1-cycles-at-6FO4")
}

func BenchmarkFigure4aInOrderNoOverhead(b *testing.B) {
	b.ReportAllocs()
	var imp float64
	for i := 0; i < b.N; i++ {
		s := experiments.RunFigure4a(benchOpts).Sweep
		ser := s.GroupSeries(trace.Integer)
		imp = ser[2] / ser[6] // BIPS(4) / BIPS(8)
	}
	b.ReportMetric(imp, "int-8to4-speedup")
}

func BenchmarkFigure4bInOrderWithOverhead(b *testing.B) {
	b.ReportAllocs()
	var opt float64
	for i := 0; i < b.N; i++ {
		opt = experiments.RunFigure4b(benchOpts).Sweep.NearOptimalUseful(trace.Integer, 0.02)
	}
	b.ReportMetric(opt, "int-optimal-FO4")
}

func BenchmarkFigure5OutOfOrder(b *testing.B) {
	b.ReportAllocs()
	var opt float64
	for i := 0; i < b.N; i++ {
		opt = experiments.RunFigure5(benchOpts).Sweep.NearOptimalUseful(trace.Integer, 0.02)
	}
	b.ReportMetric(opt, "int-optimal-FO4")
}

func BenchmarkFigure6OverheadSensitivity(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure6(benchOpts)
		lo, hi := 99.0, 0.0
		for _, s := range f.Sweeps[1:6] { // overheads 1..5 FO4
			o := s.NearOptimalUseful(trace.Integer, 0.02)
			if o < lo {
				lo = o
			}
			if o > hi {
				hi = o
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "optimum-spread-FO4")
}

func BenchmarkFigure7StructureOptimization(b *testing.B) {
	b.ReportAllocs()
	var gain float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure7(benchOpts)
		sum := 0.0
		for _, p := range f.Points {
			sum += p.BestBIPS / p.BaselineBIPS
		}
		gain = sum/float64(len(f.Points)) - 1
	}
	b.ReportMetric(gain*100, "mean-gain-%")
}

func BenchmarkFigure8CriticalLoops(b *testing.B) {
	b.ReportAllocs()
	var wakeup float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure8(benchOpts)
		wakeup = f.Sweeps[0].Points[8].RelativeIPC[trace.Integer]
	}
	b.ReportMetric(wakeup, "relIPC-wakeup+8")
}

func BenchmarkFigure11SegmentedWakeup(b *testing.B) {
	b.ReportAllocs()
	var loss float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure11(benchOpts)
		loss = 1 - f.Points[9].RelativeIPC[trace.Integer]
	}
	b.ReportMetric(loss*100, "int-10stage-loss-%")
}

func BenchmarkSegmentedSelect(b *testing.B) {
	b.ReportAllocs()
	var loss float64
	for i := 0; i < b.N; i++ {
		s := experiments.RunSegmentedSelect(benchOpts)
		loss = 1 - s.Res.RelativeIPC[trace.Integer]
	}
	b.ReportMetric(loss*100, "int-loss-%")
}

func BenchmarkCray1SComparison(b *testing.B) {
	b.ReportAllocs()
	var opt float64
	for i := 0; i < b.N; i++ {
		opt = experiments.RunCray1S(benchOpts).Sweep.OptimalUseful(trace.Integer)
	}
	b.ReportMetric(opt, "optimal-FO4")
}

func BenchmarkHeadlineOptimalClock(b *testing.B) {
	b.ReportAllocs()
	var ghz float64
	for i := 0; i < b.N; i++ {
		ghz = experiments.HeadlineOf(experiments.RunFigure5(benchOpts)).IntFreqGHz
	}
	b.ReportMetric(ghz, "int-optimal-GHz")
}

func BenchmarkWireStudy(b *testing.B) {
	b.ReportAllocs()
	var cost float64
	for i := 0; i < b.N; i++ {
		w := experiments.RunWireStudy(benchOpts)
		base := w.Without.Points[4].GroupBIPS[trace.Integer]
		wired := w.With.Points[4].GroupBIPS[trace.Integer]
		cost = (1 - wired/base) * 100
	}
	b.ReportMetric(cost, "wire-cost-%-at-6FO4")
}

// BenchmarkParallelSweepSpeedup times the Figure 5 sweep on the serial
// path (Workers 1) and on every core (Workers 0) within each iteration
// and reports their ratio. On a single-core host the ratio is ~1.0 by
// construction; the engine's speedup shows from 2+ cores up.
func BenchmarkParallelSweepSpeedup(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		serial := benchOpts
		serial.Workers = 1
		start := time.Now()
		experiments.RunFigure5(serial)
		serialDur := time.Since(start)

		start = time.Now()
		experiments.RunFigure5(benchOpts)
		parallelDur := time.Since(start)
		speedup = float64(serialDur) / float64(parallelDur)
	}
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	var memGain float64
	for i := 0; i < b.N; i++ {
		a := experiments.RunAblation(benchOpts)
		for _, p := range a.Points {
			if p.Name == "perfect memory (all L1 hits)" {
				memGain = p.Relative
			}
		}
	}
	b.ReportMetric(memGain, "perfect-memory-gain")
}
