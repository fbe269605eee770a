package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicMeanKnownValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 1}, 1},
		{[]float64{2, 2}, 2},
		{[]float64{1, 3}, 1.5},
		{[]float64{4}, 4},
	}
	for _, c := range cases {
		if got := HarmonicMean(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("HarmonicMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHarmonicMeanProperties(t *testing.T) {
	// The harmonic mean is at most the arithmetic mean and at least the
	// minimum — why the paper uses it: one slow benchmark dominates.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, sum := math.Inf(1), 0.0
		for i, r := range raw {
			xs[i] = 0.5 + float64(r%1000)
			if xs[i] < lo {
				lo = xs[i]
			}
			sum += xs[i]
		}
		h := HarmonicMean(xs)
		return h >= lo-1e-9 && h <= sum/float64(len(xs))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHarmonicMeanEdgeCases(t *testing.T) {
	if !math.IsNaN(HarmonicMean(nil)) {
		t.Error("empty mean not NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive value")
		}
	}()
	HarmonicMean([]float64{1, 0})
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 3, 2, 3}); got != 1 {
		t.Errorf("ArgMax = %d, want first maximum (1)", got)
	}
	if got := ArgMax([]float64{5}); got != 0 {
		t.Errorf("ArgMax single = %d", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 1}, 0)
	want := []float64{1, 2, 0.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("Normalize[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestBIPS(t *testing.T) {
	if got := BIPS(2.0, 3e9); math.Abs(got-6.0) > 1e-12 {
		t.Errorf("BIPS(2, 3GHz) = %v, want 6", got)
	}
}

func TestArgMaxSkipsNaN(t *testing.T) {
	// A NaN at index 0 loses every comparison; the scan must not let it
	// win by default.
	if got := ArgMax([]float64{math.NaN(), 1, 2}); got != 2 {
		t.Errorf("ArgMax(NaN,1,2) = %d, want 2", got)
	}
	if got := ArgMax([]float64{math.NaN(), 5, math.NaN(), 3}); got != 1 {
		t.Errorf("ArgMax(NaN,5,NaN,3) = %d, want 1", got)
	}
	if got := ArgMax([]float64{2, math.NaN(), 1}); got != 0 {
		t.Errorf("ArgMax(2,NaN,1) = %d, want 0", got)
	}
}

func TestArgMaxAllNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for all-NaN series")
		}
	}()
	ArgMax([]float64{math.NaN(), math.NaN()})
}

func TestNormalizePanicsOnBadBase(t *testing.T) {
	for _, base := range []float64{0, -2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for base %v", base)
				}
			}()
			Normalize([]float64{1, base, 3}, 1)
		}()
	}
}
