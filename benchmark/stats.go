package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile. A tail read off fewer samples than this is one unlucky
// request, not a measurement, so the helper refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", p*100, n, max(n-rank, 0), minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), the
// rule by which a benchmark's run-to-run spread is judged. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the middle two for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
