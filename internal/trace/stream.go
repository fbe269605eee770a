package trace

import (
	"fmt"
	"math/bits"
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

// MaxDep is the farthest back, in instructions, a producer may sit: an
// operand's distance escapes to 16 bits when one byte cannot hold it.
const MaxDep = 1<<16 - 1

// farDep is the operand byte that escapes a distance beyond 254 to the
// stream's far list.
const farDep = 1<<8 - 1

// stream is a trace's instruction stream in structure-of-arrays form:
// class and predicates folded into flags, operand back-distances, data
// addresses and — crucially — the tournament predictor's per-branch
// verdicts. The predictor sees branches in trace order in both cores
// regardless of timing, and no machine parameter alters its tables, so
// its guess stream is a pure function of the trace: one training walk
// during the build replaces one per simulated grid cell.
// (PerfectBranches machines just ignore FlagMispredict.)
//
// Every column holds only what the simulators read, about 4.4 B/inst
// over the suite:
//
//   - flags, one byte per instruction;
//   - dep1 and dep2, one byte per operand: 0 when the operand is ready,
//     else the distance back to its producer. A distance beyond 254 is
//     stored as farDep, with the distance itself in far, in
//     (instruction, operand) order. Suite producers almost all sit
//     within 254 instructions, so far holds a handful of entries;
//   - addr, the loads' and stores' addresses in trace order, 32 bits
//     each (every suite footprint is at most 32 MiB). Other
//     instructions have none;
//   - memBase and memBits, the address index (see AddrIndex): about
//     0.19 B/inst.
//
// Builder.Append rejects an instruction that would not fit rather than
// store a different one, and Builder.Trace sizes every column exactly.
// Only this package knows the format: simulators read operands through
// Operands and addresses through AddrIndex or Columns.MemAddrs.
//
// A stream is immutable once built. It holds nothing the simulators
// derive from it; their per-run state lives in pipeline.Scratch. The
// only derived structure outside the format is the analysis-only
// consumer index (see consumers.go), built at most once, and only if an
// analysis asks.
type stream struct {
	flags      []uint8
	dep1, dep2 []uint8
	far        []uint16
	addr       []uint32

	// memBase[w] counts the loads and stores before instruction 64w, and
	// bit i&63 of memBits[i>>6] is set when instruction i is one.
	memBase []uint32
	memBits []uint64

	consOnce sync.Once
	cons     *ConsumerIndex
}

// Columns is a read-only view of a trace's stream. The slices alias the
// shared stream and are capped at their length, so an append through
// them copies; writing into them outside this package is a
// traceimmutable lint finding.
type Columns struct {
	// Flags holds instruction i's Flag* bits and class at entry i; see
	// ClassOf.
	Flags []uint8
	// MemAddrs holds the effective address of every load and store, in
	// trace order: entry k belongs to the trace's k-th memory
	// instruction, not to instruction k. A reader that walks the trace in
	// order keeps a cursor into it; one that visits instructions out of
	// order uses AddrIndex.
	MemAddrs []uint32
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
	return Columns{
		Flags:    s.flags[:len(s.flags):len(s.flags)],
		MemAddrs: s.addr[:len(s.addr):len(s.addr)],
	}
}

// Operands reads a trace's operand producers in trace order: the k-th
// call to Next returns instruction k's. A reader walks its trace once;
// each walk takes a fresh one from Trace.Operands.
type Operands struct {
	dep1, dep2 []uint8
	far        []uint16
	i          int32 // the instruction the next call returns
	k          int   // the far entry of its first escaped operand
}

// Operands returns a reader positioned at the trace's first instruction.
func (t *Trace) Operands() Operands {
	s := t.s
	if s == nil {
		return Operands{}
	}
	return Operands{dep1: s.dep1, dep2: s.dep2, far: s.far}
}

// Next returns the next instruction's two producers: each the trace
// index of the instruction that feeds the operand, or -1 when the
// operand is ready. It panics past the trace's end.
//
// Next is the simulators' per-instruction operand read, so it stays
// within the compiler's inlining budget: an escaped distance is one
// not-taken branch and a load from the far list, and the producers
// are computed without branches (a zero distance sets every bit).
func (o *Operands) Next() (src1, src2 int32) {
	i := o.i
	o.i++
	d1, d2 := int32(o.dep1[i]), int32(o.dep2[i])
	if d1 == farDep {
		d1 = int32(o.far[o.k])
		o.k++
	}
	if d2 == farDep {
		d2 = int32(o.far[o.k])
		o.k++
	}
	return i - d1 | (d1-1)>>31, i - d2 | (d2-1)>>31
}

// AddrIndex looks up a load's or store's address by its trace index, in
// any order: a rank into Columns.MemAddrs from the per-64-instruction
// count and bitmap the stream keeps.
type AddrIndex struct {
	addr []uint32
	base []uint32
	bits []uint64
}

// AddrIndex returns the trace's address lookup.
func (t *Trace) AddrIndex() AddrIndex {
	s := t.s
	if s == nil {
		return AddrIndex{}
	}
	return AddrIndex{addr: s.addr, base: s.memBase, bits: s.memBits}
}

// At returns the address of instruction i, which must be a load or a
// store.
func (a *AddrIndex) At(i int32) uint32 {
	w := i >> 6
	below := a.bits[w] & (1<<uint(i&63) - 1)
	return a.addr[a.base[w]+uint32(bits.OnesCount64(below))]
}

// RetainedBytes returns the bytes the trace's stream holds: each
// column's and each address-index slice's capacity times its element
// size. Clones share one stream, so they report the same bytes. An
// analysis-only consumer index is not counted; no simulator builds one.
func (t *Trace) RetainedBytes() int64 {
	s := t.s
	if s == nil {
		return 0
	}
	return bytesOf(s.flags) + bytesOf(s.dep1) + bytesOf(s.dep2) + bytesOf(s.far) +
		bytesOf(s.addr) + bytesOf(s.memBase) + bytesOf(s.memBits)
}

// bytesOf returns the bytes behind column c's capacity.
func bytesOf[E any](c []E) int64 {
	var e E
	return int64(cap(c)) * int64(unsafe.Sizeof(e))
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
// more grows the columns. Trace trims any slack either way.
func NewBuilder(n int) *Builder {
	words := (n + 63) / 64
	return &Builder{
		s: &stream{
			flags:   make([]uint8, 0, n),
			dep1:    make([]uint8, 0, n),
			dep2:    make([]uint8, 0, n),
			addr:    make([]uint32, 0, n),
			memBase: make([]uint32, 0, words),
			memBits: make([]uint64, 0, words),
		},
		pred: branch.New(),
	}
}

// Append adds in to the end of the stream. It panics on what the
// stream cannot hold: an invalid class, a load's or store's address
// wider than 32 bits, any other instruction's non-zero address, or a
// producer that is neither -1 nor strictly earlier than in and at most
// MaxDep back. A panicking Append leaves the Builder unchanged.
func (b *Builder) Append(in Inst) {
	if int(in.Class) >= isa.NumClasses {
		panic(fmt.Sprintf("trace: invalid class %d", in.Class))
	}
	isMem := in.Class == isa.Load || in.Class == isa.Store
	if in.Addr>>32 != 0 && isMem {
		panic(fmt.Sprintf("trace: address %#x does not fit in 32 bits", in.Addr))
	}
	if in.Addr != 0 && !isMem {
		panic(fmt.Sprintf("trace: a %v carries the address %#x; only loads and stores have one", in.Class, in.Addr))
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
	s.dep1 = append(s.dep1, s.narrow(d1))
	s.dep2 = append(s.dep2, s.narrow(d2))
	if i&63 == 0 {
		s.memBase = append(s.memBase, uint32(len(s.addr)))
		s.memBits = append(s.memBits, 0)
	}
	if isMem {
		s.memBits[i>>6] |= 1 << uint(i&63)
		s.addr = append(s.addr, uint32(in.Addr))
	}
}

// depOf encodes instruction i's producer src as a back-distance.
func depOf(i int, src int32) int {
	if src == -1 {
		return 0
	}
	if src < 0 || int(src) >= i || i-int(src) > MaxDep {
		panic(fmt.Sprintf("trace: instruction %d names producer %d; it must be -1 or one of the %d before it", i, src, MaxDep))
	}
	return i - int(src)
}

// narrow returns the operand byte for distance d, escaping a distance
// beyond 254 to the far list.
func (s *stream) narrow(d int) uint8 {
	if d < farDep {
		return uint8(d)
	}
	s.far = append(s.far, uint16(d))
	return farDep
}

// Trace returns meta carrying the built stream, which from then on is
// immutable; the Builder must not be used again. Every column is
// trimmed to its length, so the trace retains no append slack.
func (b *Builder) Trace(meta Trace) *Trace {
	s := b.s
	s.flags, s.dep1, s.dep2 = exact(s.flags), exact(s.dep1), exact(s.dep2)
	s.far, s.addr = exact(s.far), exact(s.addr)
	s.memBase, s.memBits = exact(s.memBase), exact(s.memBits)
	meta.s = s
	b.s, b.pred = nil, nil
	return &meta
}

// exact returns c in a slice of exactly its length, copying it if it has
// slack.
func exact[E any](c []E) []E {
	if cap(c) == len(c) {
		return c
	}
	return append(make([]E, 0, len(c)), c...)
}
