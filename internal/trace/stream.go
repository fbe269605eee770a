package trace

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/isa"
)

// Per-instruction flags. One byte per instruction carries everything the
// simulators' cycle loops branch on, so their hot paths test a bit
// instead of re-deriving class predicates per lane. FlagFP is bit 0, so
// flags&FlagFP directly indexes an {integer, floating-point} pair.
//
// The two top bits complete the instruction's class (see ClassOf): they
// tell IntAlu from IntMult when FlagFP is clear, and FPAdd, FPMult,
// FPDiv and FPSqrt apart when it is set. Loads, stores and branches
// are named by their own bits.
const (
	FlagFP         uint8 = 1 << iota // executes on the floating-point cluster
	FlagBranch                       // conditional branch
	FlagLoad                         // data-cache read
	FlagStore                        // data-cache write
	FlagTaken                        // branch outcome: taken
	FlagMispredict                   // tournament predictor guessed wrong
)

// variantShift places a class's rank within its integer or
// floating-point group in the flags byte's two top bits.
const variantShift = 6

// classFlags returns the flag bits that name class c.
func classFlags(c isa.Class) uint8 {
	switch {
	case c == isa.Load:
		return FlagLoad
	case c == isa.Store:
		return FlagStore
	case c == isa.Branch:
		return FlagBranch
	case c.IsFP():
		return FlagFP | uint8(c-isa.FPAdd)<<variantShift
	default:
		return uint8(c-isa.IntAlu) << variantShift
	}
}

// classOf decodes every flags byte a Builder can produce; the rest map
// to an out-of-range class.
var classOf = func() (t [256]isa.Class) {
	for f := range t {
		t[f] = isa.Class(isa.NumClasses)
	}
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		f := classFlags(c)
		t[f] = c
		if c == isa.Branch {
			t[f|FlagTaken] = c
			t[f|FlagMispredict] = c
			t[f|FlagTaken|FlagMispredict] = c
		}
	}
	return t
}()

// ClassOf returns the class of the instruction whose flags byte is f.
func ClassOf(f uint8) isa.Class { return classOf[f] }

// MaxDep is the farthest back, in instructions, a producer may sit: the
// stream stores each operand as a 16-bit back-distance.
const MaxDep = 1<<16 - 1

// Producer decodes instruction i's operand distance d: the producer's
// trace index i-d, or -1 when d is 0 and the operand is ready.
func Producer(i int32, d uint16) int32 {
	if d == 0 {
		return -1
	}
	return i - int32(d)
}

// stream is a trace's instruction stream in structure-of-arrays form:
// class and predicates folded into flags, operand back-distances, data
// addresses and — crucially — the tournament predictor's per-branch
// verdicts. The predictor sees branches in trace order in both cores
// regardless of timing, and no machine parameter alters its tables, so
// its guess stream is a pure function of the trace: one training walk
// during the build replaces one per simulated grid cell.
// (PerfectBranches machines just ignore FlagMispredict.)
//
// Every column is as narrow as what it holds, 9 B/inst in all: a 16-bit
// distance reaches MaxDep back, far beyond any suite producer, and every
// suite footprint is at most 32 MiB, so addresses fit in 32 bits.
// Builder.Append rejects an instruction that would not fit rather than
// store a different one.
//
// A stream is immutable once built. It holds nothing the simulators
// derive from it; their per-run state lives in pipeline.Scratch. The
// only derived structure is the analysis-only consumer index (see
// consumers.go), built at most once, and only if an analysis asks.
type stream struct {
	flags      []uint8
	dep1, dep2 []uint16
	addr       []uint32

	consOnce sync.Once
	cons     *ConsumerIndex
}

// Columns is a read-only view of a trace's stream: entry i of every
// column describes instruction i. The slices alias the shared stream and
// are capped at their length, so an append through them copies; writing
// into them outside this package is a traceimmutable lint finding.
type Columns struct {
	Flags []uint8 // Flag* bits and the class; see ClassOf
	// Dep1 and Dep2 are the operands' back-distances to their
	// producers, 0 when ready; see Producer.
	Dep1, Dep2 []uint16
	Addr       []uint32 // effective address of loads and stores
}

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int {
	if t.s == nil {
		return 0
	}
	return len(t.s.flags)
}

// Columns returns the trace's stream as columns.
func (t *Trace) Columns() Columns {
	s := t.s
	if s == nil {
		return Columns{}
	}
	n := len(s.flags)
	return Columns{
		Flags: s.flags[:n:n],
		Dep1:  s.dep1[:n:n],
		Dep2:  s.dep2[:n:n],
		Addr:  s.addr[:n:n],
	}
}

// RetainedBytes returns the bytes the trace's columns hold: each
// column's capacity times its element size. Clones share one stream, so
// they report the same bytes. An analysis-only consumer index is not
// counted; no simulator builds one.
func (t *Trace) RetainedBytes() int64 {
	s := t.s
	if s == nil {
		return 0
	}
	return int64(cap(s.flags))*int64(unsafe.Sizeof(uint8(0))) +
		int64(cap(s.dep1)+cap(s.dep2))*int64(unsafe.Sizeof(uint16(0))) +
		int64(cap(s.addr))*int64(unsafe.Sizeof(uint32(0)))
}

// Builder builds a trace's stream one instruction at a time. It is the
// only way a stream is made — Generate uses it too — so hand-built test
// traces get the same flags and predictor verdicts a generated trace
// would. Each branch's PC trains the predictor as it is appended and is
// then dropped.
type Builder struct {
	s    *stream
	pred *branch.Tournament
}

// NewBuilder returns a Builder with room for n instructions; appending
// more grows the columns.
func NewBuilder(n int) *Builder {
	return &Builder{
		s: &stream{
			flags: make([]uint8, 0, n),
			dep1:  make([]uint16, 0, n),
			dep2:  make([]uint16, 0, n),
			addr:  make([]uint32, 0, n),
		},
		pred: branch.New(),
	}
}

// Append adds in to the end of the stream. It panics on what the
// stream cannot hold: an invalid class, an address wider than 32 bits,
// or a producer that is neither -1 nor strictly earlier than in and at
// most MaxDep back. A panicking Append leaves the Builder unchanged.
func (b *Builder) Append(in Inst) {
	if int(in.Class) >= isa.NumClasses {
		panic(fmt.Sprintf("trace: invalid class %d", in.Class))
	}
	if in.Addr>>32 != 0 {
		panic(fmt.Sprintf("trace: address %#x does not fit in 32 bits", in.Addr))
	}
	s := b.s
	i := len(s.flags)
	d1, d2 := depOf(i, in.Src1), depOf(i, in.Src2)
	f := classFlags(in.Class)
	if in.Class == isa.Branch {
		if in.Taken {
			f |= FlagTaken
		}
		guess := b.pred.Predict(in.PC)
		b.pred.Update(in.PC, in.Taken, guess)
		if guess != in.Taken {
			f |= FlagMispredict
		}
	}
	s.flags = append(s.flags, f)
	s.dep1 = append(s.dep1, d1)
	s.dep2 = append(s.dep2, d2)
	s.addr = append(s.addr, uint32(in.Addr))
}

// depOf encodes instruction i's producer src as a back-distance.
func depOf(i int, src int32) uint16 {
	if src == -1 {
		return 0
	}
	if src < 0 || int(src) >= i || i-int(src) > MaxDep {
		panic(fmt.Sprintf("trace: instruction %d names producer %d; it must be -1 or one of the %d before it", i, src, MaxDep))
	}
	return uint16(i - int(src))
}

// Trace returns meta carrying the built stream, which from then on is
// immutable; the Builder must not be used again.
func (b *Builder) Trace(meta Trace) *Trace {
	meta.s = b.s
	b.s, b.pred = nil, nil
	return &meta
}
