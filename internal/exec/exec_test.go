package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func items(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(Pool{Workers: workers}, items(100), func(i, v int) int {
			return i * v
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSerialMatchesParallel(t *testing.T) {
	fn := func(i, v int) uint64 {
		// A little deterministic arithmetic per job.
		x := uint64(v)*2654435761 + 1
		for k := 0; k < 100; k++ {
			x ^= x >> 13
			x *= 0x9E3779B97F4A7C15
		}
		return x
	}
	serial, err := Map(Pool{Workers: 1}, items(257), fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(Pool{Workers: 8}, items(257), fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(Pool{}, nil, func(i, v int) int { return v })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := Map(Pool{Workers: workers, Ctx: ctx}, items(50), func(i, v int) int {
			ran.Add(1)
			return v
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran on a cancelled context", n)
	}
}

func TestMapCancellationStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	const n = 10000
	_, err := Map(Pool{Workers: 4, Ctx: ctx}, items(n), func(i, v int) int {
		if ran.Add(1) == 10 {
			cancel()
		}
		return v
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d jobs ran despite cancellation", got)
	}
}

func TestMapWithStateOneStatePerWorker(t *testing.T) {
	type state struct{ jobs int }
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var states []*state
		newState := func() *state {
			mu.Lock()
			defer mu.Unlock()
			s := &state{}
			states = append(states, s)
			return s
		}
		got, err := MapWithState(Pool{Workers: workers}, items(100), newState,
			func(s *state, i, v int) int {
				s.jobs++
				return i + v
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, 2*i)
			}
		}
		if len(states) > workers {
			t.Fatalf("workers=%d: %d states built, want at most %d", workers, len(states), workers)
		}
		total := 0
		for _, s := range states {
			total += s.jobs
		}
		if total != 100 {
			t.Fatalf("workers=%d: states saw %d jobs, want 100", workers, total)
		}
	}
}

func TestMapWithStateSerialMatchesParallel(t *testing.T) {
	// State as an allocation amortizer: a scratch buffer reused across
	// jobs, with every job fully re-initializing what it reads.
	fn := func(buf []uint64, i, v int) uint64 {
		for k := range buf {
			buf[k] = uint64(v+k) * 2654435761
		}
		var x uint64
		for _, b := range buf {
			x ^= b + x<<7
		}
		return x
	}
	newBuf := func() []uint64 { return make([]uint64, 32) }
	serial, err := MapWithState(Pool{Workers: 1}, items(257), newBuf, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MapWithState(Pool{Workers: 8}, items(257), newBuf, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestPoolSize(t *testing.T) {
	if got := (Pool{Workers: 8}).size(3); got != 3 {
		t.Errorf("workers capped at items: got %d, want 3", got)
	}
	if got := (Pool{Workers: 2}).size(100); got != 2 {
		t.Errorf("explicit workers: got %d, want 2", got)
	}
	if got := (Pool{}).size(100); got < 1 {
		t.Errorf("default workers: got %d, want >= 1", got)
	}
}

func TestHooksObserveEveryTask(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		started := map[int]int{}
		done := map[int]int{}
		maxWorker := 0
		p := Pool{
			Workers: workers,
			OnTaskStart: func(w, i int, queueWait time.Duration) {
				mu.Lock()
				started[i]++
				if w > maxWorker {
					maxWorker = w
				}
				if queueWait < 0 {
					t.Errorf("negative queue wait %v", queueWait)
				}
				mu.Unlock()
			},
			OnTaskDone: func(w, i int, d time.Duration) {
				mu.Lock()
				done[i]++
				if d < 0 {
					t.Errorf("negative duration %v", d)
				}
				mu.Unlock()
			},
		}
		got, err := Map(p, items(57), func(i, v int) int { return v * 2 })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("workers=%d: hooks disturbed results: slot %d = %d", workers, i, v)
			}
		}
		if len(started) != 57 || len(done) != 57 {
			t.Fatalf("workers=%d: started %d / done %d indexes, want 57", workers, len(started), len(done))
		}
		for i := 0; i < 57; i++ {
			if started[i] != 1 || done[i] != 1 {
				t.Fatalf("workers=%d: index %d started %d / done %d times", workers, i, started[i], done[i])
			}
		}
		if maxWorker >= (p.size(57)) {
			t.Errorf("workers=%d: worker id %d out of range", workers, maxWorker)
		}
		if workers == 1 && maxWorker != 0 {
			t.Errorf("serial path must report worker 0, saw %d", maxWorker)
		}
	}
}

func TestHooksDoNotChangeOutput(t *testing.T) {
	fn := func(i, v int) uint64 {
		x := uint64(v)*2654435761 + 1
		for k := 0; k < 50; k++ {
			x ^= x >> 13
			x *= 0x9E3779B97F4A7C15
		}
		return x
	}
	plain, err := Map(Pool{Workers: 4}, items(123), fn)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Map(Pool{
		Workers:     4,
		OnTaskStart: func(w, i int, q time.Duration) {},
		OnTaskDone:  func(w, i int, d time.Duration) {},
	}, items(123), fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("slot %d: plain %d != hooked %d", i, plain[i], hooked[i])
		}
	}
}

func TestSkipDropsJobsAndKeepsSlots(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var started, done atomic.Int64
		p := Pool{
			Workers:     workers,
			Skip:        func(i int) bool { return i%3 == 0 },
			OnTaskStart: func(w, i int, q time.Duration) { started.Add(1) },
			OnTaskDone:  func(w, i int, d time.Duration) { done.Add(1) },
		}
		got, err := Map(p, items(30), func(i, v int) int { return v + 1 })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ran := 0
		for i, v := range got {
			if i%3 == 0 {
				if v != 0 {
					t.Fatalf("workers=%d: skipped slot %d = %d, want zero value", workers, i, v)
				}
				continue
			}
			ran++
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i+1)
			}
		}
		if started.Load() != int64(ran) || done.Load() != int64(ran) {
			t.Fatalf("workers=%d: hooks fired %d/%d times for %d run jobs (skips must not fire hooks)",
				workers, started.Load(), done.Load(), ran)
		}
	}
}

func TestSkipNilRunsEverything(t *testing.T) {
	got, err := Map(Pool{Workers: 2}, items(20), func(i, v int) int { return v + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, v, i+1)
		}
	}
}

func TestSkipConsultedOncePerJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls [50]atomic.Int64
		p := Pool{
			Workers: workers,
			Skip: func(i int) bool {
				calls[i].Add(1)
				return false
			},
		}
		if _, err := Map(p, items(50), func(i, v int) int { return v }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: Skip(%d) consulted %d times, want 1", workers, i, n)
			}
		}
	}
}

// feed returns a Pull next function serving 0..n-1 in order, all ready
// at one instant, then reporting the stream done.
func feed(n int) func() (int, time.Time, bool) {
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	ready := time.Now()
	return func() (int, time.Time, bool) {
		v, ok := <-ch
		return v, ready, ok
	}
}

// TestPullRunsEveryUnitOncePerWorkerState: every pulled unit runs
// exactly once, each worker builds one state, and the hooks fire once
// per unit with indexes counting units in pull order.
func TestPullRunsEveryUnitOncePerWorkerState(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		ran := map[int]int{}
		started, finished := map[int]int{}, 0
		var states atomic.Int32
		p := Pool{
			Workers: workers,
			OnTaskStart: func(w, i int, queueWait time.Duration) {
				mu.Lock()
				started[i]++
				if w < 0 || w >= workers || queueWait < 0 {
					t.Errorf("workers=%d: start hook got worker %d, queue wait %v", workers, w, queueWait)
				}
				mu.Unlock()
			},
			OnTaskDone: func(_, _ int, _ time.Duration) {
				mu.Lock()
				finished++
				mu.Unlock()
			},
		}
		Pull(p, func() *int { states.Add(1); return new(int) }, feed(40), func(st *int, u int) {
			*st++ // per-worker state: never shared, so -race stays quiet
			mu.Lock()
			ran[u]++
			mu.Unlock()
		})
		if got := int(states.Load()); got != workers {
			t.Errorf("workers=%d: built %d states, want one per worker", workers, got)
		}
		if len(ran) != 40 || len(started) != 40 || finished != 40 {
			t.Fatalf("workers=%d: ran %d units, started hooks for %d, done hooks %d; want 40 each", workers, len(ran), len(started), finished)
		}
		for u := 0; u < 40; u++ {
			if ran[u] != 1 || started[u] != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times, start hook index %d seen %d times", workers, u, ran[u], u, started[u])
			}
		}
	}
}

// TestPullFreeWorkerTakesNextUnit is the point of the pull model: while
// one worker is busy, another pulls and runs the next unit. Unit 0
// blocks until unit 1 has run, which only a second worker can do.
func TestPullFreeWorkerTakesNextUnit(t *testing.T) {
	unit1Ran := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Pull(Pool{Workers: 2}, func() struct{} { return struct{}{} }, feed(2), func(_ struct{}, u int) {
			if u == 1 {
				close(unit1Ran)
				return
			}
			select {
			case <-unit1Ran:
			case <-time.After(10 * time.Second):
				t.Error("unit 1 never ran while unit 0 held a worker")
			}
		})
	}()
	<-finished
}
