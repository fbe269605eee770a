package isa

import "testing"

func TestAlpha21264Latencies(t *testing.T) {
	// The last row of Table 3.
	want := map[Class]int{
		IntAlu: 1, IntMult: 7, FPAdd: 4, FPMult: 4, FPDiv: 12, FPSqrt: 18,
		Load: 1, Store: 1, Branch: 1,
	}
	for c, w := range want {
		if got := c.Alpha21264Cycles(); got != w {
			t.Errorf("%v: %d cycles, want %d", c, got, w)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	for c := 0; c < NumClasses; c++ {
		cl := Class(c)
		wantFP := cl == FPAdd || cl == FPMult || cl == FPDiv || cl == FPSqrt
		if cl.IsFP() != wantFP {
			t.Errorf("%v.IsFP() = %v", cl, cl.IsFP())
		}
	}
}

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < NumClasses; c++ {
		s := Class(c).String()
		if s == "" || s == "invalid" {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if Class(200).String() != "invalid" {
		t.Error("out-of-range class not invalid")
	}
}

func TestInvalidClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid class latency")
		}
	}()
	Class(99).Alpha21264Cycles()
}
