// Package exec provides the deterministic worker-pool executor every
// study driver in internal/core runs on. A study is a grid of independent
// simulations — the paper replays each (benchmark, clock-point) pair as a
// separate binary run — so the grid parallelizes freely as long as the
// aggregate output stays deterministic. The executor guarantees that by
// construction: results are slotted by item index, never by completion
// order, so the output of Map is byte-for-byte identical at any worker
// count, and Workers == 1 degenerates to a plain serial loop on the
// caller's goroutine. Pull is the pool's one worker loop, over a stream
// of work that arrives over time, as for the sweep daemon's long-lived
// workers; Map runs it over a grid's item indexes.
package exec

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool sizes one executor invocation.
type Pool struct {
	// Workers is the number of concurrent workers: 0 means GOMAXPROCS,
	// 1 runs every job serially on the caller's goroutine (reproducing an
	// ordinary loop bit-for-bit), and higher values cap the pool.
	Workers int

	// OnTask, when non-nil, is called on the worker's goroutine after
	// each task returns. worker identifies the worker (0..size-1; the
	// serial path is always worker 0), queueWait is the time from the
	// task's ready time (Map's submission of the grid, or the time Pull's
	// next reports) to its start, and run is the task's duration.
	//
	// Hook contract: the hook is observation-only. The pool never alters
	// scheduling, ordering or results based on it, so output stays
	// byte-for-byte identical whether it is set or nil; it must be safe
	// for concurrent calls (every worker invokes it) and must not mutate
	// items or results. internal/obs.Recorder.Task satisfies the
	// signature directly.
	OnTask func(worker int, queueWait, run time.Duration)
}

// hookClock reads the wall clock for the observation hook.
func hookClock() time.Time {
	return time.Now() //reprolint:allow nondeterminism: task timing feeds the observation hook only, never task results
}

// size resolves the worker count for n items.
func (p Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map applies fn to every item and returns the results slotted by item
// index. Jobs are handed out in index order; completion order never
// affects the output, so Map is deterministic at any worker count.
//
// Map runs every item, so its error is always nil. The second result
// stays only because the benchmark module's two callers discard it
// (res, _ := exec.Map(...)); drop it together with their blank.
func Map[T, R any](p Pool, items []T, fn func(int, T) R) ([]R, error) {
	return MapWithState(p, items,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int, it T) R { return fn(i, it) }), nil
}

// MapWithState is Map with per-worker scratch state: newState runs once
// per worker, on that worker's goroutine (the serial path is a single
// worker), and fn receives that worker's state on every job it runs.
// The sweep engine uses it to thread one pipeline.Scratch per worker
// through a study grid; its newState takes the Scratch from a free list
// that outlives the grid, so a state may arrive having served earlier
// grids. It is Pull over the item indexes, every item ready at the
// moment MapWithState is called.
//
// Determinism contract: state is an allocation amortizer, never an
// input. fn's result must be a pure function of (index, item) alone —
// identical whether the state is fresh or has served any prior sequence
// of jobs, in this call or an earlier one — because which jobs share a
// state instance depends on scheduling, and any leakage through the
// state would break Map's worker-count invariance.
func MapWithState[T, R, S any](p Pool, items []T, newState func() S, fn func(state S, index int, item T) R) []R {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results
	}
	p.Workers = p.size(len(items))
	submitted := hookClock()
	var claimed atomic.Int64
	next := func() (int, time.Time, bool) {
		i := int(claimed.Add(1)) - 1
		return i, submitted, i < len(items)
	}
	Pull(p, newState, next, func(s S, i int) { results[i] = fn(s, i, items[i]) })
	return results
}

// Pull runs the pool over a stream of work instead of a fixed grid: each
// worker owns one state from newState, built on that worker's goroutine
// (Workers == 1 runs the single worker on the caller's goroutine), and
// pulls units from next — which may block until one is ready — running
// fn on each, until next reports ok == false. Pull returns once every
// worker has seen that. It serves long-lived callers whose work arrives
// over time, like the sweep daemon: a worker that finishes a unit takes
// the next one at once instead of waiting for the slowest unit of a
// fixed batch.
//
// Units fill no result slots; fn publishes its own output, and — as with
// MapWithState — must compute it as a pure function of the unit, never
// of the state or of which worker runs it. next must be safe for
// concurrent calls. OnTask fires once per unit, with queueWait from the
// ready time next reports for the unit; next alone decides what runs and
// when the stream ends.
func Pull[T, S any](p Pool, newState func() S, next func() (unit T, ready time.Time, ok bool), fn func(state S, unit T)) {
	work := func(w int) {
		state := newState()
		for {
			u, ready, ok := next()
			if !ok {
				return
			}
			if p.OnTask == nil {
				fn(state, u)
				continue
			}
			start := hookClock()
			fn(state, u)
			p.OnTask(w, start.Sub(ready), hookClock().Sub(start))
		}
	}
	workers := p.size(math.MaxInt)
	if workers == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
}
