// Package obs is the run-telemetry layer shared by every study binary
// and the sweep daemon: structured logging on log/slog, a Recorder of
// counters, fixed-bucket duration histograms and spans fed by the
// executor's task hook, a run-manifest JSON export, and CPU/heap/
// execution-trace profiling wiring. The Recorder is the one telemetry
// registry: the manifest, sweepd's /stats and its /metrics exposition
// (package promtext) each render a Snapshot of it, and its memory is
// fixed however long the process runs.
//
// Telemetry is observation-only by contract: nothing in this package may
// influence simulation results. Recorders hang off configuration structs
// as optional pointers, every Recorder method is safe on a nil receiver,
// and the invariance test in internal/experiments pins study output
// byte-for-byte identical with telemetry on and off at any worker count.
package obs

import (
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// Recorder accumulates counters, histograms and spans for one run. All
// methods are safe for concurrent use and no-ops on a nil receiver, so
// callers thread a *Recorder without guarding every call site.
type Recorder struct {
	log *slog.Logger

	mu          sync.Mutex
	counters    map[string]int64
	hists       map[string]*Histogram // named histograms over LatencyBuckets
	studies     []*study
	open        []*study // stack: the innermost study collects task durations
	tasks       Histogram
	queueWaits  Histogram
	workerTasks map[int]int64
}

// study is one span. Durations of tasks completed while the span is the
// innermost open one attribute to it.
type study struct {
	name  string
	start time.Time
	wall  time.Duration
	done  bool
	tasks Histogram
}

// New returns an empty recorder; log may be nil for silent recording.
func New(log *slog.Logger) *Recorder {
	return &Recorder{
		log:         log,
		counters:    map[string]int64{},
		hists:       map[string]*Histogram{},
		tasks:       NewHistogram(taskBuckets),
		queueWaits:  NewHistogram(taskBuckets),
		workerTasks: map[int]int64{},
	}
}

// Add moves a named counter by delta. A level that goes both ways, such
// as requests in flight, is a counter moved by +1 and -1.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Study opens a named span and returns its closer. Studies nest (a
// driver that reuses another driver keeps both spans open); task
// durations attribute to the innermost open span. The conventional use is
//
//	defer o.Obs.Study("figure5")()
func (r *Recorder) Study(name string) func() {
	if r == nil {
		return func() {}
	}
	s := &study{name: name, start: time.Now(), tasks: NewHistogram(taskBuckets)} //reprolint:allow nondeterminism: span wall time is telemetry output, observation-only by contract
	r.mu.Lock()
	r.studies = append(r.studies, s)
	r.open = append(r.open, s)
	r.mu.Unlock()
	if r.log != nil {
		r.log.Debug("study start", "study", name)
	}
	return func() {
		r.mu.Lock()
		if s.done { // double close: keep the first measurement
			r.mu.Unlock()
			return
		}
		s.wall = time.Since(s.start) //reprolint:allow nondeterminism: span wall time is telemetry output, observation-only by contract
		s.done = true
		for i := len(r.open) - 1; i >= 0; i-- {
			if r.open[i] == s {
				r.open = append(r.open[:i], r.open[i+1:]...)
				break
			}
		}
		wall, n := s.wall, s.tasks.Count()
		r.mu.Unlock()
		if r.log != nil {
			r.log.Debug("study done", "study", name, "wall", wall, "tasks", n)
		}
	}
}

// Task records one completed executor task: the worker that ran it,
// how long it waited between its ready time and its start, and how long
// it ran. The signature matches exec.Pool's OnTask hook. It allocates
// nothing once the worker has been seen.
func (r *Recorder) Task(worker int, queueWait, run time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.queueWaits.Observe(queueWait)
	r.tasks.Observe(run)
	r.workerTasks[worker]++
	if n := len(r.open); n > 0 {
		r.open[n-1].tasks.Observe(run)
	}
	r.mu.Unlock()
}

// Observe records one duration into a named histogram over
// LatencyBuckets, built on first use.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		nh := NewHistogram(LatencyBuckets)
		h = &nh
		r.hists[name] = h
	}
	h.Observe(d)
	r.mu.Unlock()
}

// DurationStats summarizes a duration histogram in milliseconds (see
// Histogram.Stats: p50_ms is a bucket estimate, the rest are exact).
type DurationStats struct {
	Count   int     `json:"count"`
	MinMS   float64 `json:"min_ms"`
	P50MS   float64 `json:"p50_ms"`
	MaxMS   float64 `json:"max_ms"`
	TotalMS float64 `json:"total_ms"`
}

// StudyStats is one study span in a snapshot.
type StudyStats struct {
	Name   string        `json:"name"`
	WallMS float64       `json:"wall_ms"`
	Tasks  DurationStats `json:"tasks"`
}

// Snapshot is a point-in-time copy of everything a Recorder holds.
// Worker-task keys are decimal worker ids (JSON object keys are strings).
type Snapshot struct {
	Counters    map[string]int64 `json:"counters"`
	Studies     []StudyStats     `json:"studies"`
	Tasks       DurationStats    `json:"tasks"`
	QueueWait   DurationStats    `json:"queue_wait"`
	WorkerTasks map[string]int64 `json:"worker_tasks"`

	// Histograms holds every named histogram with its buckets, for
	// renderers that need them (sweepd's /metrics). It stays out of the
	// JSON, whose shape manifest and /stats readers depend on.
	Histograms map[string]Histogram `json:"-"`
}

// Histogram returns one named histogram, empty over LatencyBuckets when
// nothing has been observed under that name. The empty one allocates
// nothing: it has no cells until its first Observe.
func (s Snapshot) Histogram(name string) Histogram {
	if h, ok := s.Histograms[name]; ok {
		return h
	}
	return Histogram{bounds: LatencyBuckets}
}

// Snapshot copies the recorder's current state; a nil recorder yields an
// empty (but non-nil-mapped) snapshot. Open studies report the wall time
// elapsed so far. It takes O(counters + workers + studies + buckets),
// however many tasks the recorder has seen.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}, WorkerTasks: map[string]int64{}, Histograms: map[string]Histogram{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		snap.Counters[k] = v
	}
	for w, n := range r.workerTasks {
		snap.WorkerTasks[strconv.Itoa(w)] = n
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.clone()
	}
	for _, s := range r.studies {
		wall := s.wall
		if !s.done {
			wall = time.Since(s.start) //reprolint:allow nondeterminism: open-span elapsed time is telemetry output, observation-only by contract
		}
		snap.Studies = append(snap.Studies, StudyStats{
			Name:   s.name,
			WallMS: ms(wall),
			Tasks:  s.tasks.Stats(),
		})
	}
	snap.Tasks = r.tasks.Stats()
	snap.QueueWait = r.queueWaits.Stats()
	return snap
}
