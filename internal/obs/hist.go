package obs

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Histogram is a fixed-bucket distribution of durations: one count per
// bucket upper bound plus an overflow cell, and the exact count, sum,
// minimum and maximum. Its size is fixed when it is built, however many
// durations it observes. It is not safe for concurrent use; a Recorder
// guards every Histogram it holds with its one lock.
type Histogram struct {
	bounds   []time.Duration // strictly increasing inclusive upper bounds; shared by copies
	counts   []int64         // len(bounds)+1: one cell per bound plus the overflow
	n        int64
	sum      time.Duration
	min, max time.Duration
}

// LatencyBuckets is the ladder of every named histogram (Recorder.
// Observe): wide enough for a multi-second simulation batch, fine
// enough to see a sub-millisecond cache hit. sweepd's /metrics renders
// it in seconds.
var LatencyBuckets = []time.Duration{
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second, 30 * time.Second,
}

// taskBuckets is the finer ladder behind the task and queue-wait
// summaries: four buckets per doubling from 1µs to about 134s, so a
// median interpolated inside its bucket is off by less than that
// bucket's 19% span.
var taskBuckets = func() []time.Duration {
	b := make([]time.Duration, 4*27+1)
	for i := range b {
		b[i] = time.Duration(math.Round(float64(time.Microsecond) * math.Exp2(float64(i)/4)))
	}
	return b
}()

// NewHistogram returns an empty histogram over the given upper bounds,
// which must be strictly increasing; an observation above the last
// bound lands in the overflow cell.
func NewHistogram(bounds []time.Duration) Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %v", bounds[i]))
		}
	}
	return Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one duration. A duration equal to a bound counts in
// that bound's bucket (bounds are inclusive).
func (h *Histogram) Observe(d time.Duration) {
	i, _ := slices.BinarySearch(h.bounds, d)
	h.counts[i]++
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if h.n == 0 || d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum is the exact total of every observation.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Buckets calls fn once per bound, in increasing order, with the
// cumulative count of observations at or below it. The overflow
// bucket's cumulative count is Count.
func (h *Histogram) Buckets(fn func(le time.Duration, cumulative int64)) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fn(b, cum)
	}
}

// clone copies h with its own cells, so the copy stays fixed while h
// keeps observing.
func (h *Histogram) clone() Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return c
}

// Stats summarizes the histogram in O(buckets). Count, MinMS, MaxMS and
// TotalMS are exact; P50MS is an estimate (see p50MS).
func (h *Histogram) Stats() DurationStats {
	if h.n == 0 {
		return DurationStats{}
	}
	return DurationStats{
		Count:   int(h.n),
		MinMS:   ms(h.min),
		P50MS:   h.p50MS(),
		MaxMS:   ms(h.max),
		TotalMS: ms(h.sum),
	}
}

// p50MS estimates the median, the observation of rank n/2 (as a sorted
// sample indexed at len/2 would give). It interpolates linearly inside
// the bucket holding that rank, across the bucket's span narrowed to
// the observed [min, max], so the estimate stays inside both the bucket
// and [min, max].
func (h *Histogram) p50MS() float64 {
	rank := h.n / 2
	var below int64
	for i, c := range h.counts {
		if rank >= below+c {
			below += c
			continue
		}
		lo, hi := h.min, h.max
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		frac := (float64(rank-below) + 0.5) / float64(c)
		return ms(lo) + (ms(hi)-ms(lo))*frac
	}
	return ms(h.max) // unreachable: the cells sum to n > rank
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
