package obs

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// cumulative reads a histogram's cumulative bucket counts.
func cumulative(h *Histogram) []int64 {
	var out []int64
	h.Buckets(func(_ time.Duration, cum int64) { out = append(out, cum) })
	return out
}

func TestHistogramBoundaries(t *testing.T) {
	h := NewHistogram([]time.Duration{1, 2})
	// Observations exactly on a bound land in that bound's bucket (le is
	// inclusive); one above the last bound lands in the overflow cell.
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	if got := cumulative(&h); !slices.Equal(got, []int64{1, 2}) {
		t.Errorf("cumulative buckets = %v, want [1 2]", got)
	}
	if h.Count() != 3 || h.Sum() != 6 {
		t.Errorf("count, sum = %d, %v; want 3, 6", h.Count(), h.Sum())
	}
	if st := h.Stats(); st.MinMS != 1e-6 || st.MaxMS != 3e-6 {
		t.Errorf("min, max = %v, %v ms; want 1e-6, 3e-6", st.MinMS, st.MaxMS)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	for _, bounds := range [][]time.Duration{{1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramConcurrentObserve: named histograms observed from many
// goroutines, with snapshots taken meanwhile, lose nothing, and every
// snapshot's buckets are monotone and bounded by its count.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := New(nil)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Observe("h", time.Duration(w*perWorker+i)*time.Millisecond)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		h := r.Snapshot().Histogram("h")
		cum := cumulative(&h)
		if !slices.IsSorted(cum) || cum[len(cum)-1] > h.Count() {
			t.Fatalf("inconsistent snapshot: buckets %v, count %d", cum, h.Count())
		}
	}
	wg.Wait()
	h := r.Snapshot().Histogram("h")
	const n = workers * perWorker
	if h.Count() != n {
		t.Errorf("Count = %d, want %d", h.Count(), n)
	}
	// Durations are integers, so the sum is exact in any order.
	if want := time.Duration(n*(n-1)/2) * time.Millisecond; h.Sum() != want {
		t.Errorf("Sum = %v, want %v", h.Sum(), want)
	}
}

// TestP50InsideMedianBucket: over a skewed synthetic spread, the
// estimated median lies in the bucket holding the exact median (the
// rank-n/2 element) and inside [min, max].
func TestP50InsideMedianBucket(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1001} {
		h := NewHistogram(taskBuckets)
		var ds []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(37+i*i*i%9973) * time.Microsecond
			ds = append(ds, d)
			h.Observe(d)
		}
		slices.Sort(ds)
		median := ds[n/2]
		i, _ := slices.BinarySearch(taskBuckets, median)
		lo, hi := time.Duration(0), taskBuckets[i]
		if i > 0 {
			lo = taskBuckets[i-1]
		}
		st := h.Stats()
		if st.P50MS < ms(lo) || st.P50MS > ms(hi) {
			t.Errorf("n=%d: p50 %v ms outside the median's bucket (%v, %v] (exact median %v)", n, st.P50MS, lo, hi, median)
		}
		if st.P50MS < st.MinMS || st.P50MS > st.MaxMS {
			t.Errorf("n=%d: p50 %v ms outside [min %v, max %v]", n, st.P50MS, st.MinMS, st.MaxMS)
		}
	}
}

func TestTaskAllocatesNothing(t *testing.T) {
	r := New(nil)
	defer r.Study("s")()
	if a := testing.AllocsPerRun(1000, func() { r.Task(1, time.Microsecond, time.Millisecond) }); a != 0 {
		t.Errorf("Task allocates %v times per call, want 0", a)
	}
}

// TestRecorderMemoryBounded is the bounded-memory oracle: a recorder
// that has seen 1M tasks retains the same heap, and its Snapshot
// allocates the same, as one that has seen 10k. Per-task samples would
// grow both a hundredfold.
func TestRecorderMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("records 1M tasks")
	}
	type cost struct {
		retained   int64   // heap held by the recorder after the tasks
		snapAllocs float64 // allocations per Snapshot
		snapBytes  int64   // bytes allocated per Snapshot
	}
	measure := func(tasks int) cost {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := int64(ms.HeapAlloc)
		r := New(nil)
		end := r.Study("s")
		for i := 0; i < tasks; i++ {
			d := time.Duration(i%5000) * time.Microsecond
			r.Task(i%4, d/4, d)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		c := cost{retained: int64(ms.HeapAlloc) - base}
		c.snapAllocs = testing.AllocsPerRun(20, func() { r.Snapshot() })
		const snaps = 20
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < snaps; i++ {
			r.Snapshot()
		}
		runtime.ReadMemStats(&ms)
		c.snapBytes = int64(ms.TotalAlloc-before) / snaps
		end()
		runtime.KeepAlive(r)
		return c
	}
	small, large := measure(10_000), measure(1_000_000)
	// The heap readings carry a few KiB of noise from the runtime and
	// the test framework; per-task samples would differ by megabytes.
	const slack = 64 << 10
	if d := large.retained - small.retained; d > slack || d < -slack {
		t.Errorf("retained heap: %d B after 10k tasks, %d B after 1M", small.retained, large.retained)
	}
	if small.snapAllocs != large.snapAllocs {
		t.Errorf("Snapshot allocations: %v after 10k tasks, %v after 1M", small.snapAllocs, large.snapAllocs)
	}
	if d := large.snapBytes - small.snapBytes; d > 1<<10 || d < -(1<<10) {
		t.Errorf("Snapshot bytes: %d after 10k tasks, %d after 1M", small.snapBytes, large.snapBytes)
	}
}
