// Package metrics holds the small numeric utilities the experiments share:
// harmonic means (the paper aggregates benchmark performance harmonically),
// BIPS computation, series normalization and argmax helpers.
package metrics

import (
	"fmt"
	"math"
)

// HarmonicMean returns the harmonic mean of xs. It panics if any value is
// non-positive (a benchmark with zero performance would make the mean
// meaningless) and returns NaN for an empty slice.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	inv := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("metrics: harmonic mean of non-positive value")
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ArgMax returns the index of the maximum value (first occurrence).
// NaN entries are skipped — a NaN compares false against everything, so
// a naive scan with a NaN at index 0 would return a bogus optimum. An
// all-NaN series panics; an empty series returns 0, as it always has.
func ArgMax(xs []float64) int {
	best := -1
	for i, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if best < 0 || x > xs[best] {
			best = i
		}
	}
	if best < 0 {
		if len(xs) == 0 {
			return 0
		}
		panic("metrics: ArgMax of all-NaN series")
	}
	return best
}

// Normalize returns xs scaled so that xs[ref] becomes 1.0. It panics if
// the base value is zero, negative or NaN — dividing by such a base
// would silently yield an ±Inf/NaN series.
func Normalize(xs []float64, ref int) []float64 {
	base := xs[ref]
	if math.IsNaN(base) || base <= 0 {
		panic(fmt.Sprintf("metrics: Normalize base xs[%d] = %v is not positive", ref, base))
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// BIPS converts an IPC at a clock frequency (Hz) into billions of
// instructions per second.
func BIPS(ipc, freqHz float64) float64 { return ipc * freqHz / 1e9 }
