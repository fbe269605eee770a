// Package trace generates deterministic synthetic dynamic instruction
// streams that stand in for the paper's SPEC 2000 benchmarks (Table 2).
//
// We cannot ship SPEC binaries or an Alpha ISA functional simulator, so
// each benchmark is replaced by a calibrated profile controlling the three
// workload properties the paper's conclusions rest on:
//
//   - available ILP, via the register-dependency distance distribution
//     (vector codes have long distances, integer codes short chains);
//   - branch behaviour, via a population of branch sites with loop,
//     pattern, and biased-random dynamics whose predictability under a real
//     tournament predictor matches the benchmark's character;
//   - memory behaviour, via streaming and random accesses over a
//     configurable footprint driving a real cache hierarchy.
//
// Traces are microarchitecture-independent: the same trace is replayed at
// every clock frequency, as the paper replays the same benchmark.
package trace

import (
	"fmt"

	"repro/internal/isa"
)

// Group classifies benchmarks the way the paper's figures do.
type Group uint8

const (
	Integer Group = iota
	VectorFP
	NonVectorFP
)

func (g Group) String() string {
	switch g {
	case Integer:
		return "integer"
	case VectorFP:
		return "vector-fp"
	case NonVectorFP:
		return "non-vector-fp"
	default:
		return "invalid"
	}
}

// Groups lists the benchmark groups in canonical report order.
// Simulation code iterates this slice instead of ranging over a
// map[Group]..., so aggregate ordering never depends on Go's
// randomized map iteration (the mapiter lint rule enforces that).
func Groups() []Group { return []Group{Integer, VectorFP, NonVectorFP} }

// Inst is one dynamic instruction, the unit a Builder appends.
type Inst struct {
	Class isa.Class
	// Src1 and Src2 are the trace indices of the producing instructions,
	// or -1 when the operand is ready from the start (an old value or an
	// immediate). Dependencies always point backwards, at most MaxDep
	// instructions; Builder.Append panics on any other producer.
	Src1, Src2 int32
	// Addr is the effective address for loads and stores, and 0 for
	// every other class. A trace stores it in 32 bits, for loads and
	// stores only; Builder.Append panics on a wider one, or on any other
	// instruction's non-zero address.
	Addr uint64
	// PC identifies the branch site for the predictor; meaningful only for
	// branches. The build consumes it (see Builder); a trace never stores
	// it.
	PC uint32
	// Taken is the branch outcome.
	Taken bool
}

// Trace is a generated dynamic instruction stream.
//
// A Trace is immutable once Generate (or Builder.Trace) returns:
// simulators only read it, and the sweep engine (internal/core) relies on
// that to share one instance across concurrent pipeline runs and to cache
// generated traces process-wide. Code that needs a variant of a trace must
// clone it (see WithPrefetchCoverage) instead of mutating a shared
// instance.
type Trace struct {
	Name  string
	Group Group

	// s is the instruction stream: the columns and readers that Columns,
	// Operands and AddrIndex expose, plus the consumer index if an
	// analysis asked for one. Clones share it, so
	// everything derived from the stream is built once and freed with the
	// last trace that holds it.
	s *stream

	// HotBytes and WarmBytes describe the benchmark's working-set tiers so
	// simulators can pre-warm their caches, standing in for the 500
	// million instructions the paper skips before measuring (which arrive
	// with warm caches). Without this, short traces would be dominated by
	// compulsory misses the paper's methodology never sees.
	HotBytes  uint64
	WarmBytes uint64

	// PrefetchCoverage is the fraction of stream prefetch opportunities
	// the benchmark's (software-prefetched) code covers; see
	// mem.Hierarchy.Coverage.
	PrefetchCoverage float64
}

// WithPrefetchCoverage returns a copy of the trace with the given prefetch
// coverage. The instruction stream is shared with the receiver (it is read-only by contract), so the clone is
// cheap regardless of trace length.
func (t *Trace) WithPrefetchCoverage(cov float64) *Trace {
	c := *t
	c.PrefetchCoverage = cov
	return &c
}

// RNG is a small xorshift64* generator; deterministic and fast.
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded by seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{s: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn needs n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Geometric returns a geometric variate with the given mean (≥ 1).
func (r *RNG) Geometric(mean float64) int {
	if mean < 1 {
		mean = 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() > p && n < 4096 {
		n++
	}
	return n
}

// branchKind describes the dynamics of one branch site.
type branchKind uint8

const (
	loopBranch    branchKind = iota // taken n-1 times out of n
	patternBranch                   // repeating bit pattern, learnable
	biasedBranch                    // independent coin flips
)

type branchSite struct {
	kind    branchKind
	pc      uint32
	period  int     // loop trip count or pattern length
	pattern uint64  // pattern bits
	bias    float64 // probability taken for biasedBranch
	state   int     // position in loop/pattern
}

func (b *branchSite) next(r *RNG) bool {
	switch b.kind {
	case loopBranch:
		b.state++
		if b.state >= b.period {
			b.state = 0
			return false // loop exit
		}
		return true
	case patternBranch:
		taken := b.pattern>>(uint(b.state)%64)&1 == 1
		b.state = (b.state + 1) % b.period
		return taken
	default:
		return r.Float64() < b.bias
	}
}

// Profile is the calibrated description of one synthetic benchmark.
type Profile struct {
	Name  string
	Group Group

	// Mix holds relative weights over instruction classes; it need not be
	// normalized.
	Mix [isa.NumClasses]float64

	// DepDistMean is the mean register-dependency distance, in
	// instructions: the knob that sets available ILP. TwoSrcFrac is the
	// fraction of instructions with a second register source. IndepFrac is
	// the probability an operand carries no dependency at all — vector
	// codes are chains of short intra-iteration dependences between
	// *independent* loop iterations, which is what makes them latency
	// tolerant, so their profiles use a high IndepFrac rather than long
	// dependency distances.
	DepDistMean float64
	TwoSrcFrac  float64
	IndepFrac   float64

	// LoadDepFrac is the fraction of instruction sources that depend on a
	// recent load (pointer-chasing codes have high values).
	LoadDepFrac float64

	// Branch-site population.
	LoopFrac    float64 // fraction of sites that are loop back-edges
	PatternFrac float64 // fraction of sites with learnable patterns
	RandomBias  float64 // taken-probability of the remaining biased sites
	LoopTrip    int     // mean loop trip count
	Sites       int     // number of static branch sites

	// Memory behaviour.
	FootprintBytes uint64  // total data working set
	StreamFrac     float64 // fraction of accesses that walk streams
	Streams        int     // concurrent sequential streams
	StrideBytes    uint64  // stream stride
	HotFrac        float64 // fraction of random accesses to a hot 16KB region
	PrefetchCov    float64 // software-prefetch coverage (0 means full)
}

// Generate produces a deterministic trace of n instructions.
func (p Profile) Generate(n int, seed uint64) *Trace {
	if n <= 0 {
		panic("trace: need n > 0")
	}
	r := NewRNG(seed ^ hashString(p.Name))
	warm := p.FootprintBytes / 8
	if warm < 32<<10 {
		warm = 32 << 10
	}
	cov := p.PrefetchCov
	if cov == 0 {
		cov = 1.0
	}
	b := NewBuilder(n)

	// Build the cumulative mix.
	var cum [isa.NumClasses]float64
	total := 0.0
	for i, w := range p.Mix {
		if w < 0 {
			panic(fmt.Sprintf("trace: negative mix weight for %v", isa.Class(i)))
		}
		total += w
		cum[i] = total
	}
	if total == 0 {
		panic("trace: profile has an empty instruction mix")
	}

	// Branch sites.
	sites := make([]branchSite, p.Sites)
	for i := range sites {
		f := float64(i) / float64(max(1, p.Sites))
		s := &sites[i]
		// Spaced so up to 256 sites map to distinct local-history entries
		// (the predictor indexes with pc>>2); beyond that they alias, as
		// large real codes do.
		s.pc = uint32(i*16 + 64)
		switch {
		case f < p.LoopFrac:
			s.kind = loopBranch
			s.period = 2 + r.Intn(2*max(1, p.LoopTrip))
			// Short loops cap at what ten bits of local history can learn;
			// longer trip counts stay long (they mispredict only at exit).
			if s.period > 9 && s.period < 24 {
				s.period = 9
			}
		case f < p.LoopFrac+p.PatternFrac:
			s.kind = patternBranch
			s.period = 3 + r.Intn(12)
			s.pattern = r.Uint64()
		default:
			s.kind = biasedBranch
			// Spread the per-site bias around the profile's value so the
			// population has easy and hard members, like real code.
			s.bias = p.RandomBias + (r.Float64()-0.5)*0.3
			if s.bias < 0.05 {
				s.bias = 0.05
			}
			if s.bias > 0.98 {
				s.bias = 0.98
			}
		}
	}

	// Stream walkers.
	streams := make([]uint64, max(1, p.Streams))
	for i := range streams {
		streams[i] = (r.Uint64() % max(1, p.FootprintBytes)) &^ 7
	}

	recentLoads := make([]int32, 0, 8)
	lastProd := -1 // the latest value producer appended
	stride := p.StrideBytes
	if stride == 0 {
		stride = 8
	}

	for i := 0; i < n; i++ {
		var in Inst
		// Pick a class from the mix.
		x := r.Float64() * total
		cl := isa.IntAlu
		for c := 0; c < isa.NumClasses; c++ {
			if x <= cum[c] {
				cl = isa.Class(c)
				break
			}
		}
		in.Class = cl

		// Dependencies: walk back a geometric distance to the nearest
		// value producer. Stores consume a value; branches consume flags.
		// A producer more than MaxDep back counts as ready, as the
		// stream cannot name it; none of the suite's comes near.
		pick := func() int32 {
			if r.Float64() < p.IndepFrac {
				return -1 // fresh value: new loop iteration or constant
			}
			if p.LoadDepFrac > 0 && len(recentLoads) > 0 && r.Float64() < p.LoadDepFrac {
				if j := recentLoads[r.Intn(len(recentLoads))]; i-int(j) <= MaxDep {
					return j
				}
				return -1
			}
			d := r.Geometric(p.DepDistMean)
			// Nothing after lastProd produces a value, so the walk can
			// start there; a mix of almost only stores and branches then
			// costs no long walks.
			for j := min(i-d, lastProd); j >= 0 && i-j <= MaxDep; j-- {
				if b.s.flags[j]&(FlagStore|FlagBranch) == 0 {
					return int32(j)
				}
			}
			return -1
		}
		in.Src1 = pick()
		in.Src2 = -1
		// Branches compare one recent value (typically against zero), so
		// they carry a single register source; everything else may have two.
		if cl != isa.Branch && r.Float64() < p.TwoSrcFrac {
			in.Src2 = pick()
		}

		switch {
		case cl == isa.Load || cl == isa.Store:
			// Three-tier locality: sequential streams (spatial locality —
			// consecutive 8-byte elements share cache lines), a hot region
			// (stack and hot globals, L1-resident), a warm region (~1/8 of
			// the footprint, typically L2-resident), and rare cold accesses
			// over the whole footprint.
			switch {
			case r.Float64() < p.StreamFrac:
				s := r.Intn(len(streams))
				streams[s] += stride
				if streams[s] >= p.FootprintBytes {
					streams[s] = 0
				}
				in.Addr = streams[s]
			case r.Float64() < p.HotFrac:
				in.Addr = r.Uint64() % (16 << 10)
			case r.Float64() < 0.85:
				in.Addr = r.Uint64() % warm
			default:
				in.Addr = r.Uint64() % max(64, p.FootprintBytes)
			}
			in.Addr &^= 7
			if cl == isa.Load {
				recentLoads = append(recentLoads, int32(i))
				if len(recentLoads) > 8 {
					recentLoads = recentLoads[1:]
				}
			}
		case cl == isa.Branch:
			s := &sites[r.Intn(len(sites))]
			in.PC = s.pc
			in.Taken = s.next(r)
		}
		b.Append(in)
		if cl != isa.Store && cl != isa.Branch {
			lastProd = i
		}
	}
	return b.Trace(Trace{
		Name: p.Name, Group: p.Group,
		HotBytes: 16 << 10, WarmBytes: warm, PrefetchCoverage: cov,
	})
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
