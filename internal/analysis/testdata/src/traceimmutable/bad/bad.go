// Package bad writes a shared trace.Trace every way the rule catches.
package bad

import "repro/internal/trace"

// Mutate violates the immutability contract three distinct ways.
func Mutate(t *trace.Trace) {
	t.Name = "mutant"        // want traceimmutable
	t.HotBytes++             // want traceimmutable
	t.PrefetchCoverage = 0.5 // want traceimmutable
}

// MutateStream writes into the stream every clone of t shares, through
// each kind of alias the rule follows.
func MutateStream(t *trace.Trace, more []uint8, edge []int32) {
	cols := t.Columns()
	cols.Flags[0] = trace.FlagTaken  // want traceimmutable
	t.Columns().MemAddrs[1]++        // want traceimmutable
	(cols.MemAddrs)[2] += 64         // want traceimmutable
	copy(cols.Flags[1:], more)       // want traceimmutable
	_ = append(cols.MemAddrs[:1], 7) // want traceimmutable
	flags := cols.Flags[1:]
	tail := flags[1:]
	tail[0] |= trace.FlagMispredict // want traceimmutable
	var addrs = t.Columns().MemAddrs
	addrs[0]-- // want traceimmutable
	ci := t.ConsumerIndexOf()
	ci.Edges[0] = 3                         // want traceimmutable
	ci.Consumers(0)[0] = 4                  // want traceimmutable
	copy(t.ConsumerIndexOf().Offsets, edge) // want traceimmutable
}
