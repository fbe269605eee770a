package pipeline

import (
	"testing"

	"repro/internal/trace"
)

// Microbenchmarks for the simulator hot loop: one RunWith per iteration
// on a Scratch built and warmed before the timer starts, as a sweep
// worker runs it, so they time the steady-state loop and not the arena
// allocation and cache prewarm a fresh Scratch pays once. One
// sub-benchmark per workload class mix (the three groups the paper's
// figures split on) and per window variant. ReportAllocs makes the
// steady-state allocation behaviour a first-class benchmark output (it
// reads 0), so a regression shows up per-package instead of hiding
// inside the end-to-end figure benchmarks; cmd/benchdiff compares runs.

// benchMixes names one benchmark per group: integer, vector FP, and
// non-vector FP exercise the branchy, latency-tolerant and mixed paths of
// the issue loop respectively.
var benchMixes = []string{"176.gcc", "171.swim", "177.mesa"}

func benchRun(b *testing.B, mod func(*Params)) {
	for _, name := range benchMixes {
		b.Run(name, func(b *testing.B) {
			tr := getTrace(b, name, 40000)
			p := paramsAt(6)
			if mod != nil {
				mod(&p)
			}
			scratch := NewScratch()
			s := RunWith(p, tr, scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = RunWith(p, tr, scratch)
			}
			b.ReportMetric(s.IPC, "IPC")
		})
	}
}

func BenchmarkRunOutOfOrder(b *testing.B) {
	benchRun(b, nil)
}

func BenchmarkRunSegmented(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.UnifiedWindow = 32
		p.WindowStages = 4
	})
}

func BenchmarkRunPreSelect(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.UnifiedWindow = 32
		p.WindowStages = 4
		p.PreSelect = []int{5, 2, 1}
	})
}

func BenchmarkRunInOrder(b *testing.B) {
	benchRun(b, func(p *Params) {
		p.Machine.InOrder = true
	})
}

// gridSink keeps BenchmarkDepthGrid's runs observable to the compiler.
var gridSink Stats

// BenchmarkDepthGrid times the core loop the way a paper figure drives
// it: every depth from 2 to 16 FO4 for each of benchMixes, 12 000
// instructions a point, in GeometryOrder on one Scratch warmed before
// the timer starts. One op is the whole 45-point grid; ns/inst divides
// its time by the instructions it simulates.
func BenchmarkDepthGrid(b *testing.B) {
	const n = 12000
	traces := make([]*trace.Trace, len(benchMixes))
	for i, name := range benchMixes {
		prof, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("no profile %s", name)
		}
		traces[i] = prof.Generate(n, 1)
	}
	params := make([]Params, 0, 15)
	for u := 2; u <= 16; u++ {
		params = append(params, paramsAt(float64(u)))
	}
	order := GeometryOrder(params)
	scratch := NewScratch()
	grid := func() {
		for _, tr := range traces {
			for _, i := range order {
				gridSink = RunWith(params[i], tr, scratch)
			}
		}
	}
	grid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid()
	}
	insts := float64(b.N) * float64(len(traces)*len(params)*n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/insts, "ns/inst")
}
