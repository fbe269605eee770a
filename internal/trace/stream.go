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
const (
	FlagFP         uint8 = 1 << iota // executes on the floating-point cluster
	FlagBranch                       // conditional branch
	FlagLoad                         // data-cache read
	FlagStore                        // data-cache write
	FlagTaken                        // branch outcome: taken
	FlagMispredict                   // tournament predictor guessed wrong
)

// stream is a trace's instruction stream in structure-of-arrays form:
// class predicates folded into flags, operand producers, data addresses
// and — crucially — the tournament predictor's per-branch verdicts. The
// predictor sees branches in trace order in both cores regardless of
// timing, and no machine parameter alters its tables, so its guess
// stream is a pure function of the trace: one training walk during the
// build replaces one per simulated grid cell. (PerfectBranches machines
// just ignore FlagMispredict.)
//
// Addresses are stored in 32 bits: every suite footprint is at most
// 32 MiB, and Builder.Append rejects an address that does not fit.
//
// A stream is immutable once built. It holds nothing the simulators
// derive from it; their per-run state lives in pipeline.Scratch. The
// only derived structure is the analysis-only consumer index (see
// consumers.go), built at most once, and only if an analysis asks.
type stream struct {
	flags      []uint8
	class      []isa.Class
	src1, src2 []int32
	addr       []uint32

	consOnce sync.Once
	cons     *ConsumerIndex
}

// Columns is a read-only view of a trace's stream: entry i of every
// column describes instruction i. The slices alias the shared stream and
// are capped at their length, so an append through them copies; writing
// into them outside this package is a traceimmutable lint finding.
type Columns struct {
	Flags []uint8 // Flag* bits
	Class []isa.Class
	// Src1 and Src2 are the producers' trace indices, -1 when ready.
	Src1, Src2 []int32
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
		Class: s.class[:n:n],
		Src1:  s.src1[:n:n],
		Src2:  s.src2[:n:n],
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
		int64(cap(s.class))*int64(unsafe.Sizeof(isa.Class(0))) +
		int64(cap(s.src1)+cap(s.src2))*int64(unsafe.Sizeof(int32(0))) +
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
			class: make([]isa.Class, 0, n),
			src1:  make([]int32, 0, n),
			src2:  make([]int32, 0, n),
			addr:  make([]uint32, 0, n),
		},
		pred: branch.New(),
	}
}

// Append adds in to the end of the stream. It panics if in.Addr does
// not fit in 32 bits.
func (b *Builder) Append(in Inst) {
	if in.Addr>>32 != 0 {
		panic(fmt.Sprintf("trace: address %#x does not fit in 32 bits", in.Addr))
	}
	var f uint8
	if in.Class.IsFP() {
		f |= FlagFP
	}
	switch in.Class {
	case isa.Load:
		f |= FlagLoad
	case isa.Store:
		f |= FlagStore
	case isa.Branch:
		f |= FlagBranch
		if in.Taken {
			f |= FlagTaken
		}
		guess := b.pred.Predict(in.PC)
		b.pred.Update(in.PC, in.Taken, guess)
		if guess != in.Taken {
			f |= FlagMispredict
		}
	}
	s := b.s
	s.flags = append(s.flags, f)
	s.class = append(s.class, in.Class)
	s.src1 = append(s.src1, in.Src1)
	s.src2 = append(s.src2, in.Src2)
	s.addr = append(s.addr, uint32(in.Addr))
}

// Trace returns meta carrying the built stream, which from then on is
// immutable; the Builder must not be used again.
func (b *Builder) Trace(meta Trace) *Trace {
	meta.s = b.s
	b.s, b.pred = nil, nil
	return &meta
}
