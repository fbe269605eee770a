package trace

import "repro/internal/isa"

// This file holds the calibrated profiles for the 18 SPEC 2000 benchmarks
// of Table 2. The parameters are not measurements of the real binaries —
// we cannot run those — but were tuned so that the group-level behaviour
// the paper's results depend on holds: vector FP has abundant ILP and
// near-perfectly-predictable loop branches; integer codes have short
// dependence chains, hard branches and mixed memory locality; non-vector
// FP sits between, with less ILP than vector codes (Section 4.1 explains
// the resulting BIPS ordering).

// mix builds a class-weight table from the common knobs.
func mix(alu, mult, fadd, fmul, fdiv, fsqrt, ld, st, br float64) [isa.NumClasses]float64 {
	var m [isa.NumClasses]float64
	m[isa.IntAlu] = alu
	m[isa.IntMult] = mult
	m[isa.FPAdd] = fadd
	m[isa.FPMult] = fmul
	m[isa.FPDiv] = fdiv
	m[isa.FPSqrt] = fsqrt
	m[isa.Load] = ld
	m[isa.Store] = st
	m[isa.Branch] = br
	return m
}

// suite is the full benchmark suite of Table 2: nine integer, four
// vector floating-point and five non-vector floating-point profiles. It
// is built once; the lookups below read it in place, so resolving a
// benchmark name allocates nothing.
var suite = [...]Profile{
	// ---- Integer ----
	{
		Name: "164.gzip", Group: Integer,
		Mix:         mix(0.50, 0.00, 0, 0, 0, 0, 0.22, 0.12, 0.14),
		DepDistMean: 3.5, TwoSrcFrac: 0.45, IndepFrac: 0.12, LoadDepFrac: 0.50,
		LoopFrac: 0.55, PatternFrac: 0.30, RandomBias: 0.82, LoopTrip: 12, Sites: 64,
		FootprintBytes: 1 << 20, StreamFrac: 0.55, Streams: 4, HotFrac: 0.92,
	},
	{
		Name: "175.vpr", Group: Integer,
		Mix:         mix(0.48, 0.01, 0.02, 0.02, 0, 0, 0.24, 0.10, 0.13),
		DepDistMean: 3.2, TwoSrcFrac: 0.45, IndepFrac: 0.12, LoadDepFrac: 0.50,
		LoopFrac: 0.52, PatternFrac: 0.30, RandomBias: 0.80, LoopTrip: 8, Sites: 96,
		FootprintBytes: 1 << 20, StreamFrac: 0.35, Streams: 2, HotFrac: 0.92,
	},
	{
		Name: "176.gcc", Group: Integer,
		Mix:         mix(0.47, 0.00, 0, 0, 0, 0, 0.25, 0.11, 0.17),
		DepDistMean: 3, TwoSrcFrac: 0.40, IndepFrac: 0.12, LoadDepFrac: 0.50,
		LoopFrac: 0.50, PatternFrac: 0.32, RandomBias: 0.78, LoopTrip: 6, Sites: 128,
		FootprintBytes: 2 << 20, StreamFrac: 0.30, Streams: 2, HotFrac: 0.92,
	},
	{
		Name: "181.mcf", Group: Integer,
		Mix:         mix(0.42, 0.00, 0, 0, 0, 0, 0.32, 0.08, 0.18),
		DepDistMean: 2.8, TwoSrcFrac: 0.35, IndepFrac: 0.08, LoadDepFrac: 0.50,
		LoopFrac: 0.50, PatternFrac: 0.28, RandomBias: 0.78, LoopTrip: 10, Sites: 64,
		FootprintBytes: 16 << 20, StreamFrac: 0.20, Streams: 1, HotFrac: 0.70,
	},
	{
		Name: "197.parser", Group: Integer,
		Mix:         mix(0.47, 0.00, 0, 0, 0, 0, 0.26, 0.10, 0.17),
		DepDistMean: 3, TwoSrcFrac: 0.40, IndepFrac: 0.11, LoadDepFrac: 0.50,
		LoopFrac: 0.50, PatternFrac: 0.32, RandomBias: 0.78, LoopTrip: 7, Sites: 128,
		FootprintBytes: 2 << 20, StreamFrac: 0.25, Streams: 2, HotFrac: 0.90,
	},
	{
		Name: "252.eon", Group: Integer,
		Mix:         mix(0.44, 0.01, 0.05, 0.05, 0.005, 0, 0.25, 0.09, 0.11),
		DepDistMean: 4, TwoSrcFrac: 0.45, IndepFrac: 0.18, LoadDepFrac: 0.50,
		LoopFrac: 0.60, PatternFrac: 0.28, RandomBias: 0.86, LoopTrip: 10, Sites: 64,
		FootprintBytes: 512 << 10, StreamFrac: 0.45, Streams: 3, HotFrac: 0.95,
	},
	{
		Name: "253.perlbmk", Group: Integer,
		Mix:         mix(0.48, 0.00, 0, 0, 0, 0, 0.25, 0.11, 0.16),
		DepDistMean: 3.2, TwoSrcFrac: 0.40, IndepFrac: 0.13, LoadDepFrac: 0.50,
		LoopFrac: 0.55, PatternFrac: 0.30, RandomBias: 0.84, LoopTrip: 9, Sites: 192,
		FootprintBytes: 768 << 10, StreamFrac: 0.40, Streams: 2, HotFrac: 0.93,
	},
	{
		Name: "256.bzip2", Group: Integer,
		Mix:         mix(0.50, 0.00, 0, 0, 0, 0, 0.23, 0.12, 0.13),
		DepDistMean: 3.6, TwoSrcFrac: 0.45, IndepFrac: 0.14, LoadDepFrac: 0.50,
		LoopFrac: 0.56, PatternFrac: 0.28, RandomBias: 0.82, LoopTrip: 14, Sites: 48,
		FootprintBytes: 1 << 20, StreamFrac: 0.55, Streams: 3, HotFrac: 0.92,
	},
	{
		Name: "300.twolf", Group: Integer,
		Mix:         mix(0.46, 0.01, 0.02, 0.02, 0.002, 0, 0.25, 0.10, 0.14),
		DepDistMean: 3.1, TwoSrcFrac: 0.42, IndepFrac: 0.12, LoadDepFrac: 0.50,
		LoopFrac: 0.52, PatternFrac: 0.30, RandomBias: 0.78, LoopTrip: 8, Sites: 96,
		FootprintBytes: 768 << 10, StreamFrac: 0.30, Streams: 2, HotFrac: 0.92,
	},

	// ---- Vector floating-point ----
	{
		Name: "171.swim", Group: VectorFP,
		Mix:         mix(0.22, 0.00, 0.26, 0.22, 0.004, 0, 0.20, 0.08, 0.022),
		DepDistMean: 28, TwoSrcFrac: 0.50, IndepFrac: 0.40, LoadDepFrac: 0.05,
		LoopFrac: 0.92, PatternFrac: 0.05, RandomBias: 0.90, LoopTrip: 256, Sites: 24,
		FootprintBytes: 32 << 20, StreamFrac: 0.97, Streams: 6, HotFrac: 0.93, PrefetchCov: 0.94,
	},
	{
		Name: "172.mgrid", Group: VectorFP,
		Mix:         mix(0.24, 0.00, 0.28, 0.22, 0.002, 0, 0.19, 0.05, 0.018),
		DepDistMean: 30, TwoSrcFrac: 0.50, IndepFrac: 0.42, LoadDepFrac: 0.05,
		LoopFrac: 0.94, PatternFrac: 0.04, RandomBias: 0.90, LoopTrip: 192, Sites: 16,
		FootprintBytes: 24 << 20, StreamFrac: 0.97, Streams: 8, HotFrac: 0.93, PrefetchCov: 0.94,
	},
	{
		Name: "173.applu", Group: VectorFP,
		Mix:         mix(0.24, 0.00, 0.25, 0.21, 0.01, 0, 0.20, 0.07, 0.03),
		DepDistMean: 24, TwoSrcFrac: 0.50, IndepFrac: 0.36, LoadDepFrac: 0.06,
		LoopFrac: 0.90, PatternFrac: 0.06, RandomBias: 0.85, LoopTrip: 128, Sites: 32,
		FootprintBytes: 24 << 20, StreamFrac: 0.95, Streams: 6, HotFrac: 0.92, PrefetchCov: 0.92,
	},
	{
		Name: "183.equake", Group: VectorFP,
		Mix:         mix(0.26, 0.00, 0.24, 0.20, 0.006, 0, 0.21, 0.05, 0.035),
		DepDistMean: 20, TwoSrcFrac: 0.55, IndepFrac: 0.32, LoadDepFrac: 0.10,
		LoopFrac: 0.86, PatternFrac: 0.08, RandomBias: 0.85, LoopTrip: 96, Sites: 32,
		FootprintBytes: 16 << 20, StreamFrac: 0.93, Streams: 4, HotFrac: 0.90, PrefetchCov: 0.90,
	},

	// ---- Non-vector floating-point ----
	{
		Name: "177.mesa", Group: NonVectorFP,
		Mix:         mix(0.36, 0.01, 0.14, 0.12, 0.01, 0.002, 0.22, 0.08, 0.078),
		DepDistMean: 9, TwoSrcFrac: 0.50, IndepFrac: 0.26, LoadDepFrac: 0.15,
		LoopFrac: 0.55, PatternFrac: 0.20, RandomBias: 0.85, LoopTrip: 24, Sites: 64,
		FootprintBytes: 1 << 20, StreamFrac: 0.60, Streams: 3, HotFrac: 0.92, PrefetchCov: 0.88,
	},
	{
		Name: "178.galgel", Group: NonVectorFP,
		Mix:         mix(0.30, 0.00, 0.18, 0.15, 0.01, 0, 0.22, 0.07, 0.07),
		DepDistMean: 11, TwoSrcFrac: 0.52, IndepFrac: 0.22, LoadDepFrac: 0.12,
		LoopFrac: 0.62, PatternFrac: 0.15, RandomBias: 0.82, LoopTrip: 32, Sites: 48,
		FootprintBytes: 8 << 20, StreamFrac: 0.65, Streams: 4, HotFrac: 0.86, PrefetchCov: 0.82,
	},
	{
		Name: "179.art", Group: NonVectorFP,
		Mix:         mix(0.30, 0.00, 0.17, 0.15, 0.006, 0, 0.25, 0.05, 0.074),
		DepDistMean: 9, TwoSrcFrac: 0.52, IndepFrac: 0.20, LoadDepFrac: 0.20,
		LoopFrac: 0.60, PatternFrac: 0.15, RandomBias: 0.80, LoopTrip: 48, Sites: 32,
		FootprintBytes: 4 << 20, StreamFrac: 0.45, Streams: 2, HotFrac: 0.60, PrefetchCov: 0.60,
	},
	{
		Name: "188.ammp", Group: NonVectorFP,
		Mix:         mix(0.32, 0.00, 0.16, 0.14, 0.015, 0.004, 0.23, 0.06, 0.071),
		DepDistMean: 8, TwoSrcFrac: 0.50, IndepFrac: 0.16, LoadDepFrac: 0.22,
		LoopFrac: 0.55, PatternFrac: 0.18, RandomBias: 0.78, LoopTrip: 28, Sites: 48,
		FootprintBytes: 16 << 20, StreamFrac: 0.40, Streams: 2, HotFrac: 0.80, PrefetchCov: 0.72,
	},
	{
		Name: "189.lucas", Group: NonVectorFP,
		Mix:         mix(0.28, 0.00, 0.19, 0.17, 0.004, 0, 0.21, 0.08, 0.066),
		DepDistMean: 11, TwoSrcFrac: 0.52, IndepFrac: 0.22, LoadDepFrac: 0.10,
		LoopFrac: 0.66, PatternFrac: 0.14, RandomBias: 0.80, LoopTrip: 40, Sites: 32,
		FootprintBytes: 16 << 20, StreamFrac: 0.70, Streams: 4, HotFrac: 0.85, PrefetchCov: 0.82,
	},
}

// SPEC2000 returns a copy of the suite, in Table 2 order; the caller may
// modify it.
func SPEC2000() []Profile { return append([]Profile(nil), suite[:]...) }

// ByGroup returns the subset of profiles in group g.
func ByGroup(g Group) []Profile {
	var out []Profile
	for i := range suite {
		if suite[i].Group == g {
			out = append(out, suite[i])
		}
	}
	return out
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, bool) {
	return Find(func(n string) bool { return n == name })
}

// Find returns the first suite profile, in Table 2 order, whose name
// satisfies match.
func Find(match func(name string) bool) (Profile, bool) {
	for i := range suite {
		if match(suite[i].Name) {
			return suite[i], true
		}
	}
	return Profile{}, false
}

// Names returns the suite's benchmark names in Table 2 order.
func Names() []string {
	out := make([]string, len(suite))
	for i := range suite {
		out[i] = suite[i].Name
	}
	return out
}
