// Package ok treats shared traces as read-only: reads, clones and
// construction of fresh Trace values are all fine.
package ok

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// Variant derives a new trace the sanctioned way — cloning — and reads
// whatever it likes from the original.
func Variant(t *trace.Trace) (*trace.Trace, int) {
	c := t.WithPrefetchCoverage(0.5)
	fresh := &trace.Trace{Name: t.Name, Group: t.Group}
	if fresh.Len() == 0 {
		return c, t.Len()
	}
	return fresh, t.Len()
}

// Private reads the stream's columns and writes only into slices it
// owns, including copies of the columns.
func Private(t *trace.Trace) ([]uint8, int32) {
	cols := t.Columns()
	mine := make([]uint8, len(cols.Flags))
	copy(mine, cols.Flags)
	mine[0] |= trace.FlagTaken
	mine = append(mine, cols.Flags...)
	var sum int32
	ops := t.Operands()
	for _, f := range cols.Flags {
		if src, _ := ops.Next(); f&trace.FlagBranch != 0 {
			sum += src
		}
	}
	for _, a := range cols.MemAddrs {
		sum += int32(a)
	}
	for _, c := range t.ConsumerIndexOf().Consumers(0) {
		sum += c
	}
	flags := cols.Flags
	flags = mine // rebinding the local writes nothing shared
	_ = flags
	return mine, sum
}

// Build makes a fresh trace through the one append path.
func Build() *trace.Trace {
	b := trace.NewBuilder(2)
	b.Append(trace.Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 64})
	b.Append(trace.Inst{Class: isa.IntAlu, Src1: 0, Src2: -1})
	return b.Trace(trace.Trace{Name: "fresh"})
}
