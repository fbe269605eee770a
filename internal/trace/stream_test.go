package trace

import (
	"testing"

	"repro/internal/isa"
)

// TestStreamMemoryBudget bounds what a trace retains per instruction.
// The columns take 14 B (flags, class, two producers, a 32-bit address)
// and nothing else is kept: the simulators' wakeup lists live in their
// own scratch state. A trace that also kept an array-of-structs copy, a
// consumer index, 64-bit addresses or columns with append slack would
// blow the budget.
func TestStreamMemoryBudget(t *testing.T) {
	const n, budget = 200_000, 15.0
	for _, p := range SPEC2000() {
		tr := p.Generate(n, 1)
		if got := float64(tr.RetainedBytes()) / n; got > budget {
			t.Errorf("%s: trace retains %.1f B/inst, budget %.0f", p.Name, got, budget)
		}
	}
}

// TestAppendRejectsWideAddress: the address column is 32 bits wide, so
// Append refuses an address it would truncate instead of storing a
// different one.
func TestAppendRejectsWideAddress(t *testing.T) {
	b := NewBuilder(2)
	b.Append(Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 1<<32 - 8})
	defer func() {
		if recover() == nil {
			t.Error("Append accepted the address 1<<32")
		}
	}()
	b.Append(Inst{Class: isa.Load, Src1: -1, Src2: -1, Addr: 1 << 32})
}
