package trace

import (
	"testing"
	"unsafe"
)

// streamBytes returns the bytes t's stream holds: every column's and the
// consumer index's capacity, times its element size.
func streamBytes(t *Trace) int {
	s, ci := t.s, t.ConsumerIndexOf()
	return cap(s.flags)*int(unsafe.Sizeof(s.flags[0])) +
		cap(s.class)*int(unsafe.Sizeof(s.class[0])) +
		(cap(s.src1)+cap(s.src2))*int(unsafe.Sizeof(s.src1[0])) +
		cap(s.addr)*int(unsafe.Sizeof(s.addr[0])) +
		(cap(ci.Offsets)+cap(ci.Edges))*int(unsafe.Sizeof(ci.Edges[0]))
}

// TestStreamMemoryBudget bounds what a trace retains per instruction.
// The columns take 18 B (flags, class, two producers, an address) and
// the consumer index about 4 B of row offsets plus 4 B per dependence
// edge; a trace that also kept an array-of-structs copy, or columns
// with append slack, would blow the budget.
func TestStreamMemoryBudget(t *testing.T) {
	const n, budget = 200_000, 28.0
	for _, p := range SPEC2000() {
		tr := p.Generate(n, 1)
		if got := float64(streamBytes(tr)) / n; got > budget {
			t.Errorf("%s: stream holds %.1f B/inst, budget %.0f", p.Name, got, budget)
		}
	}
}
