package trace

import "testing"

// BenchmarkGenerate is the in-package probe of the benchmark's
// trace.generate_ms layer: one op generates every suite profile at
// 20 000 instructions, seed 1. ns/inst divides the op's time by the
// instructions generated. B/inst is what the generated traces retain
// (RetainedBytes), where B/op also counts the build's transient
// garbage.
func BenchmarkGenerate(b *testing.B) {
	const n = 20000
	suite := SPEC2000()
	var retained int64
	b.ReportAllocs()
	for range b.N {
		retained = 0
		for _, p := range suite {
			retained += p.Generate(n, 1).RetainedBytes()
		}
	}
	insts := float64(len(suite) * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*insts), "ns/inst")
	b.ReportMetric(float64(retained)/insts, "B/inst")
}
