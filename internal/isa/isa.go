// Package isa defines the minimal Alpha-like instruction vocabulary the
// simulators operate on: instruction classes with their Alpha 21264
// execution latencies, from which the paper derives the functional-unit
// latencies of Table 3 at every clock.
package isa

// Class is the execution class of an instruction.
type Class uint8

// Instruction classes. The paper's Table 3 distinguishes integer add and
// multiply, and floating-point add, multiply, divide and square root;
// loads, stores and branches complete the mix.
const (
	IntAlu Class = iota // add, logical, shift, compare; also branch resolution
	IntMult
	FPAdd
	FPMult
	FPDiv
	FPSqrt
	Load
	Store
	Branch
	NumClasses int = iota
)

var classNames = [NumClasses]string{
	"int-alu", "int-mult", "fp-add", "fp-mult", "fp-div", "fp-sqrt",
	"load", "store", "branch",
}

func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "invalid"
}

// IsFP reports whether the class executes on the floating-point cluster.
func (c Class) IsFP() bool { return c >= FPAdd && c <= FPSqrt }

// Alpha21264Cycles returns the execution latency of the class on the Alpha
// 21264 (800 MHz, 180nm) in that machine's cycles — the last row of
// Table 3. Loads report address-generation only; the cache access is
// modeled separately. All units are fully pipelined.
func (c Class) Alpha21264Cycles() int {
	switch c {
	case IntAlu, Load, Store, Branch:
		return 1
	case IntMult:
		return 7
	case FPAdd, FPMult:
		return 4
	case FPDiv:
		return 12
	case FPSqrt:
		return 18
	default:
		panic("isa: invalid class")
	}
}
