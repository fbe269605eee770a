package serve

// The scheduler is the daemon's heart: a content-addressed result cache
// over single-point simulations, a singleflight registry of in-flight
// points, and long-lived workers behind internal/exec's Pull. Each
// worker owns one pipeline.Scratch and, as soon as it finishes one
// claim, takes the next: the oldest queued point plus every queued point
// on its trace, run through one core.SimulateEach call, so a multi-depth
// sweep fetches the trace once and reuses the Scratch's prewarmed memory
// template, while another trace starts on the next free worker. Each
// point finalizes the moment it completes. Concurrent clients asking
// overlapping grids attach to the same job, so each distinct point
// simulates at most once per process. A point whose every requester has
// disconnected is pruned from the queue immediately instead of burning
// simulation time for nobody; a claimed point runs to completion and
// fills the cache. Queue pruning (release, claimLocked) is the one
// cancellation point.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// ErrQueueFull is returned by admit when accepting a request's new
// points would push the queue past its depth limit; the HTTP layer maps
// it to 429 + Retry-After.
var ErrQueueFull = errors.New("point queue full")

// ErrStopped is returned by admit once close has begun: the dispatcher
// may already have drained for the last time, so enqueueing would strand
// the request forever. The HTTP layer maps it to 503.
var ErrStopped = errors.New("scheduler stopped")

// errCancelled finalizes a job whose every requester went away before a
// worker claimed it. No client ever observes it (a job with waiters
// never carries it); it exists so an abandoned job's done channel still
// closes.
var errCancelled = errors.New("point cancelled: all requesters disconnected")

// job is one distinct simulation point moving through the scheduler.
// Exactly one of line/err is set before done closes; both are immutable
// afterwards. waiters counts the request streams still wanting the
// result; it is read and written only under the scheduler's mu.
type job struct {
	key   string
	opts  core.PointOptions
	ident traceIdent // the trace it batches on

	done chan struct{}
	line []byte // the newline-terminated NDJSON result, set before done closes
	err  error

	waiters int

	// leads is set at admission, under mu like waiters, once the job
	// holds some request's first job ticket: that stream has no
	// simulated line yet and waits on this job first. finalize reports
	// it, so the worker that ran the job can hand its processor to the
	// stream's handler (see runBatch).
	leads bool

	// Tracing/metrics carry-alongs, observation-only by contract: the
	// request ID of the request that created the job (joiners share it —
	// singleflight means the origin's simulation serves them all) and
	// the admission time feeding the queue-wait histogram.
	origin   string
	enqueued time.Time
}

// ticket is one point of one request's stream: either already resolved
// from the cache at admission, or a job to wait on.
type ticket struct {
	line []byte
	job  *job
}

// scheduler owns the queue, the singleflight registry and the result
// store. The queue and registry are guarded by mu; ready wakes idle
// workers when work is queued or close begins.
//
// The result store is the pluggable ResultStore seam (internal/store):
// a bounded in-memory LRU by default, or a durable warm-start store
// when the daemon runs with -store. The store has its own internal
// locking; scheduler calls into it both under mu (admission
// classification must be atomic against the queue) and outside it
// (finalize) — the nesting is always scheduler.mu -> store, never the
// reverse.
type scheduler struct {
	rec         *obs.Recorder
	log         *slog.Logger
	workers     int
	codeVersion string
	queueLimit  int
	cache       store.ResultStore

	mu       sync.Mutex
	ready    sync.Cond // L is &mu
	queue    []*job
	inflight map[string]*job // queued or running jobs by key
	running  int             // jobs in batches workers hold
	closing  bool

	// scratchBytes sums RetainedBytes over the workers' Scratches. Each
	// worker adds its own Scratch's growth after a batch, so the sum is
	// read without touching a Scratch another goroutine is running.
	scratchBytes atomic.Int64

	stopped chan struct{} // closed once every worker has exited
}

func newScheduler(workers, queueLimit int, cache store.ResultStore, codeVersion string, rec *obs.Recorder, log *slog.Logger) *scheduler {
	if log == nil {
		log = slog.Default()
	}
	s := &scheduler{
		rec:         rec,
		log:         log,
		workers:     workers,
		codeVersion: codeVersion,
		queueLimit:  queueLimit,
		cache:       cache,
		inflight:    map[string]*job{},
		stopped:     make(chan struct{}),
	}
	s.ready.L = &s.mu
	// The dispatcher is the one goroutine the serving layer owns; it
	// hosts exec.Pull, so every simulation runs on the executor's
	// workers and parallel work stays behind the deterministic pool.
	go s.run() //reprolint:allow goroutinescope: the dispatcher only hosts exec.Pull; all simulation parallelism stays behind the deterministic executor
	return s
}

// admitStats is one request's admission classification, for the access
// log and the request trace: how many of its points were already
// resolved (hits, of which joins attached to in-flight work) versus
// genuinely new (misses). hits+misses == points admitted.
type admitStats struct {
	hits   int
	misses int
	joins  int
}

// admit classifies each point of one request against the cache and the
// in-flight registry, enqueues the genuinely new ones, and returns one
// ticket per point in request order. Each point must be normalized,
// keys[i] must be pts[i].Key(version) and the (pts, keys) pair must
// already be deduplicated, as SweepRequest.Points returns them. origin
// is the requester's trace ID, carried by each newly created job. When
// admitting would push the queue past its depth limit nothing is
// enqueued and ErrQueueFull is returned.
func (s *scheduler) admit(pts []core.PointOptions, keys []string, origin string) ([]ticket, admitStats, error) {
	var adm admitStats
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.closing {
		// close() may already have run the dispatcher's final drain;
		// enqueueing now would block the caller on a job nobody will run.
		return nil, adm, ErrStopped
	}

	// One store probe per key: the line (if resident or on disk) is held
	// for the classification pass below, so a hit is fetched exactly once.
	// Store state cannot shift between the passes — every store mutation
	// on the serving path (finalize's Put) runs under this same mutex.
	lines := make([][]byte, len(keys))
	fresh := 0
	for i, k := range keys {
		if line, ok := s.cache.Get(k); ok {
			lines[i] = line
			continue
		}
		if _, ok := s.inflight[k]; ok {
			continue
		}
		fresh++
	}
	if s.queueLimit > 0 && len(s.queue)+fresh > s.queueLimit {
		// The HTTP layer accounts the rejection (by reason) so direct
		// scheduler callers and requests share one counting site.
		return nil, adm, ErrQueueFull
	}

	tickets := make([]ticket, 0, len(pts))
	lead := true // the next job ticket is the request's first
	for i, k := range keys {
		if lines[i] != nil {
			adm.hits++
			tickets = append(tickets, ticket{line: lines[i]})
			continue
		}
		j, ok := s.inflight[k]
		if ok {
			// Singleflight join: the simulation is queued or running for
			// someone else; share it. A join is a hit — the work exists.
			j.waiters++
			adm.hits++
			adm.joins++
		} else {
			j = &job{key: k, opts: pts[i], ident: identOf(pts[i]), done: make(chan struct{}),
				waiters: 1, origin: origin, enqueued: time.Now()}
			s.inflight[k] = j
			s.queue = append(s.queue, j)
			adm.misses++
		}
		if lead {
			j.leads, lead = true, false
		}
		tickets = append(tickets, ticket{job: j})
	}
	// One recorder update per counter per admission, not per point. A
	// zero is skipped so a counter appears only once it has counted.
	if adm.hits > 0 {
		s.rec.Add("point_cache_hits", int64(adm.hits))
	}
	if adm.joins > 0 {
		s.rec.Add("dedup_joins", int64(adm.joins))
	}
	if adm.misses > 0 {
		s.rec.Add("point_cache_misses", int64(adm.misses))
		// New points may form several batches: wake every idle worker.
		s.ready.Broadcast()
	}
	return tickets, adm, nil
}

// release detaches one request from the tickets it never consumed (the
// client disconnected mid-stream). Queued jobs nobody else wants are
// pruned immediately; claimed ones run anyway, so their results still
// fill the cache.
func (s *scheduler) release(tickets []ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tickets {
		if t.job == nil {
			continue
		}
		t.job.waiters--
	}
	kept := s.queue[:0]
	for _, j := range s.queue {
		if j.waiters > 0 {
			kept = append(kept, j)
			continue
		}
		s.dropLocked(j)
	}
	clear(s.queue[len(kept):])
	s.queue = kept
}

// dropLocked retires a job nobody wants any more: unregistered,
// finalized as cancelled, counted dropped. Caller holds s.mu.
func (s *scheduler) dropLocked(j *job) {
	delete(s.inflight, j.key)
	j.err = errCancelled
	close(j.done)
	s.rec.Add("points_dropped", 1)
}

// traceIdent is the normalized trace identity batches form on: two
// points with equal idents walk the same generated trace, so their
// depth-invariant work can be shared.
type traceIdent struct {
	bench string
	n     int
	seed  uint64
}

// identOf reads the trace identity of a normalized point.
func identOf(o core.PointOptions) traceIdent {
	return traceIdent{bench: o.Benchmark, n: o.Instructions, seed: o.Seed}
}

// run is the dispatcher: s.workers long-lived workers, each with one
// Scratch, pull batches until close has begun and the queue is empty.
func (s *scheduler) run() {
	defer close(s.stopped)
	pool := exec.Pool{Workers: s.workers, OnTask: s.rec.Task}
	exec.Pull(pool, pipeline.NewScratch, s.next, s.runBatch)
}

// next is a worker's pull: it blocks until a batch can be claimed and
// claims it, reporting the batch's oldest admission as its ready time.
// ok is false once close has begun and the queue is empty — the worker
// exits.
func (s *scheduler) next() (batch []*job, ready time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if batch := s.claimLocked(); len(batch) > 0 {
			return batch, batch[0].enqueued, true
		}
		if s.closing {
			return nil, time.Time{}, false
		}
		s.ready.Wait()
	}
}

// claimLocked removes the next batch from the queue: the oldest live
// job and every other queued live job on the same trace, in queue
// order. Jobs whose waiters all vanished are dropped on the way
// (release prunes these; belt and braces). From here on a job runs
// whoever still waits for it. Caller holds s.mu.
func (s *scheduler) claimLocked() []*job {
	var batch []*job
	kept := s.queue[:0]
	for _, j := range s.queue {
		switch {
		case j.waiters <= 0:
			s.dropLocked(j)
		case len(batch) == 0 || j.ident == batch[0].ident:
			batch = append(batch, j)
		default:
			kept = append(kept, j)
		}
	}
	clear(s.queue[len(kept):])
	s.queue = kept
	s.running += len(batch)
	return batch
}

// runBatch is one worker's unit of work: run a claimed batch through
// one core.SimulateEach call on the worker's Scratch, finalizing each
// job (cache write + done close) the moment its point completes, so
// request streams advance while the rest of the batch runs; then lower
// running. A job whose last waiter left after the claim still runs and
// fills the cache, so every miss ends as points_done or points_dropped.
func (s *scheduler) runBatch(sc *pipeline.Scratch, batch []*job) {
	before := sc.RetainedBytes()
	opts := make([]core.PointOptions, len(batch))
	for i, j := range batch {
		s.rec.Observe("point_queue_wait", time.Since(j.enqueued))
		opts[i] = j.opts
	}
	err := core.SimulateEach(opts, sc, s.rec, func(i int, res core.BenchPoint) {
		if s.finishJob(batch[i], res, nil) {
			// A stream with no simulated line yet waits on this one,
			// and finalize just woke its handler. Simulation loops never
			// block, so when every processor runs one the handler would
			// wait for the runtime's preemption tick (~10 ms); yielding
			// lets it write the line now. Only a request's first job
			// yields: one yield per point costs a flush per line.
			runtime.Gosched()
		}
	})
	if err != nil {
		// Validation failed before any point ran: nothing was emitted.
		for _, j := range batch {
			s.finishJob(j, core.BenchPoint{}, err)
		}
	}
	s.scratchBytes.Add(sc.RetainedBytes() - before)
	s.mu.Lock()
	s.running -= len(batch)
	s.mu.Unlock()
}

// finishJob publishes one simulated job: marshal, finalize. err
// is the should-not-happen guard for points that were validated at
// admission; it surfaces on the stream without caching. It reports
// whether the job leads some request's stream (see job.leads).
func (s *scheduler) finishJob(j *job, res core.BenchPoint, err error) bool {
	if err != nil {
		j.err = err
		return s.finalize(j, nil)
	}
	line, merr := json.Marshal(newPointResult(j.key, j.opts, res))
	if merr != nil {
		j.err = merr
		return s.finalize(j, nil)
	}
	// The newline is part of the cached line: the slice is shared
	// by every stream that hits this point, so it must never be
	// appended to after it leaves this worker.
	line = append(line, '\n')
	leads := s.finalize(j, line)
	// The trace's scheduler hop: ties the simulation and store
	// fill back to the request that caused them.
	s.log.Debug("point simulated",
		"request_id", j.origin,
		"key", j.key,
		"bytes", len(line))
	return leads
}

// finalize publishes one completed job: result stored (on success — a
// durable store also appends it to the segment log here, write-through),
// registry entry retired, waiters woken. The store write happens under
// mu so admission's classify-then-enqueue stays atomic against it. It
// reports whether the job leads some request's stream: once the job
// leaves the registry no later request can join it, so the answer is
// final.
func (s *scheduler) finalize(j *job, line []byte) bool {
	s.mu.Lock()
	if line != nil {
		j.line = line
		s.cache.Put(j.key, line)
		s.rec.Add("points_done", 1)
	}
	delete(s.inflight, j.key)
	leads := j.leads
	s.mu.Unlock()
	close(j.done)
	return leads
}

// close stops the dispatcher after it finishes every admitted job and
// waits for it to exit. Safe to call once. Setting closing under mu
// orders every admit against the drain: an admit that saw
// closing==false finished enqueueing first, so the workers claim its
// jobs before they see an empty queue and exit; any later admit fails
// with ErrStopped instead of stranding its caller.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closing = true
	s.ready.Broadcast()
	s.mu.Unlock()
	<-s.stopped
}

// gauges reports the live queue state for /healthz, /stats and /metrics.
func (s *scheduler) gauges() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}
