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
		calls, maxWorker := 0, 0
		p := Pool{
			Workers: workers,
			OnTask: func(w int, queueWait, run time.Duration) {
				mu.Lock()
				calls++
				if w > maxWorker {
					maxWorker = w
				}
				if queueWait < 0 || run < 0 {
					t.Errorf("negative queue wait %v or run %v", queueWait, run)
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
				t.Fatalf("workers=%d: hook disturbed results: slot %d = %d", workers, i, v)
			}
		}
		if calls != 57 {
			t.Fatalf("workers=%d: hook fired %d times, want 57", workers, calls)
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
		Workers: 4,
		OnTask:  func(w int, q, d time.Duration) {},
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
// exactly once, each worker builds one state, and the hook fires once
// per unit.
func TestPullRunsEveryUnitOncePerWorkerState(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		ran := map[int]int{}
		hooked := 0
		var states atomic.Int32
		p := Pool{
			Workers: workers,
			OnTask: func(w int, queueWait, run time.Duration) {
				mu.Lock()
				hooked++
				if w < 0 || w >= workers || queueWait < 0 || run < 0 {
					t.Errorf("workers=%d: hook got worker %d, queue wait %v, run %v", workers, w, queueWait, run)
				}
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
		if len(ran) != 40 || hooked != 40 {
			t.Fatalf("workers=%d: ran %d units, hook fired %d times; want 40 each", workers, len(ran), hooked)
		}
		for u := 0; u < 40; u++ {
			if ran[u] != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times", workers, u, ran[u])
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
