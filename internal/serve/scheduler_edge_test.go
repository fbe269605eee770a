package serve

// Shutdown- and disconnect-edge tests for the scheduler, white-box on
// purpose: the hard paths (a waiter vanishing in the window between
// release's prune and a worker's claim, a claimed job losing its last
// waiter, a new waiter attaching to a claimed job, a simulation error
// surfacing after admission) live in races the HTTP layer can only hit
// probabilistically. Here the dispatcher goroutine is left unstarted,
// so each test plays the worker by hand — takeBatch, then runBatch —
// and the interleaving is exact.

import (
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

const edgeVersion = "edge-v"

// newEdgeScheduler builds a scheduler with no dispatcher goroutine: the
// test is the worker, calling takeBatch/runBatch itself.
func newEdgeScheduler(queueLimit int) *scheduler {
	s := &scheduler{
		rec:         obs.New(nil),
		log:         slog.Default(),
		workers:     1,
		codeVersion: edgeVersion,
		queueLimit:  queueLimit,
		cache:       store.NewMemory(64, nil),
		inflight:    map[string]*job{},
		stopped:     make(chan struct{}),
	}
	s.ready.L = &s.mu
	return s
}

// takeBatch is the test's non-blocking claim: the next batch, or nil
// when the queue holds none.
func takeBatch(s *scheduler) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claimLocked()
}

// edgePoints expands a tiny grid into admission-ready (pts, keys).
func edgePoints(t *testing.T, benches []string, useful []float64) ([]core.PointOptions, []string) {
	t.Helper()
	req := SweepRequest{Useful: useful, Benchmarks: benches, Instructions: 2000, Seed: 99}
	pts, keys, err := req.Points(edgeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return pts, keys
}

// closedWithErr reports whether j.done has closed and with what error.
func closedWithErr(j *job) (bool, error) {
	select {
	case <-j.done:
		return true, j.err
	default:
		return false, nil
	}
}

// TestNewSchedulerNilObservabilityDefaults: the real constructor
// (dispatcher and all) with every observability seam nil must still
// admit, simulate and drain — the nil recorder no-ops and the nil
// logger defaults to slog.Default. Admit-after-close through the Server is pinned in
// serve_test.go; this is the bare-scheduler variant.
func TestNewSchedulerNilObservabilityDefaults(t *testing.T) {
	s := newScheduler(1, 8, store.NewMemory(8, nil), edgeVersion, nil, nil)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	tickets, adm, err := s.admit(pts, keys, "t1")
	if err != nil || adm.misses != 1 {
		t.Fatalf("admit: %v %+v", err, adm)
	}
	<-tickets[0].job.done
	if tickets[0].job.err != nil || tickets[0].job.line == nil {
		t.Fatalf("job finished err=%v line=%q", tickets[0].job.err, tickets[0].job.line)
	}
	s.close()
	if _, _, err := s.admit(pts, keys, "t2"); !errors.Is(err, ErrStopped) {
		t.Fatalf("admit after close = %v, want ErrStopped", err)
	}
}

func TestAdmitQueueFullEnqueuesNothing(t *testing.T) {
	s := newEdgeScheduler(1)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6, 8})
	if _, _, err := s.admit(pts, keys, "t1"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admit past queueLimit = %v, want ErrQueueFull", err)
	}
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatalf("rejected admission left state behind: queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	// A request that fits must still be admitted afterwards.
	pts, keys = edgePoints(t, []string{"gcc"}, []float64{6})
	if _, _, err := s.admit(pts, keys, "t2"); err != nil {
		t.Fatalf("fitting admit after rejection: %v", err)
	}
}

// TestReleasePrunesQueuedJobs is the disconnect-while-queued edge: every
// released point that nobody else wants leaves the queue immediately,
// finalized as cancelled, and is counted dropped.
func TestReleasePrunesQueuedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6, 8})
	tickets, adm, err := s.admit(pts, keys, "t1")
	if err != nil || adm.misses != 2 {
		t.Fatalf("admit: %v %+v", err, adm)
	}
	s.release(tickets)
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatalf("release left queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	for i, tk := range tickets {
		done, jerr := closedWithErr(tk.job)
		if !done || !errors.Is(jerr, errCancelled) {
			t.Fatalf("ticket %d: done=%v err=%v, want cancelled", i, done, jerr)
		}
	}
	if got := s.rec.Counter("points_dropped"); got != 2 {
		t.Fatalf("points_dropped = %d, want 2", got)
	}
}

// TestReleaseKeepsSharedJobs: a queued job survives one requester's
// disconnect as long as another stream still wants it.
func TestReleaseKeepsSharedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	first, adm1, err := s.admit(pts, keys, "t1")
	if err != nil || adm1.misses != 1 {
		t.Fatalf("first admit: %v %+v", err, adm1)
	}
	second, adm2, err := s.admit(pts, keys, "t2")
	if err != nil || adm2.joins != 1 || adm2.hits != 1 {
		t.Fatalf("second admit should join in-flight work: %v %+v", err, adm2)
	}
	if first[0].job != second[0].job {
		t.Fatal("the two requests hold different jobs for one key")
	}

	s.release(first)
	if len(s.queue) != 1 || len(s.inflight) != 1 {
		t.Fatalf("job with a live waiter was pruned: queue %d, inflight %d", len(s.queue), len(s.inflight))
	}
	if done, _ := closedWithErr(second[0].job); done {
		t.Fatal("shared job finalized while a waiter remained")
	}
	s.release(second)
	if len(s.queue) != 0 || len(s.inflight) != 0 {
		t.Fatal("job lingered after its last waiter left")
	}
	if got := s.rec.Counter("points_dropped"); got != 1 {
		t.Fatalf("points_dropped = %d, want 1 (one point, however many requesters)", got)
	}
}

// TestReleaseSkipsResolvedTickets: tickets satisfied from the cache at
// admission carry no job; release must walk past them.
func TestReleaseSkipsResolvedTickets(t *testing.T) {
	s := newEdgeScheduler(8)
	s.cache.Put("warm-key", []byte(`{"key":"warm-key"}`+"\n"))
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	tickets, _, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	line, ok := s.cache.Get("warm-key")
	if !ok {
		t.Fatal("cache lost the warm line")
	}
	mixed := append([]ticket{{line: line}}, tickets...)
	s.release(mixed) // must not panic on the job-less ticket
	if len(s.queue) != 0 {
		t.Fatalf("queue depth %d after full release", len(s.queue))
	}
}

// TestTakeBatchDropsAbandonedJobs covers the belt-and-braces window:
// a job's last waiter vanishes after release's prune decision but
// before a worker claims it. takeBatch must drop it, not hand it to
// the worker — and the batch it does claim is the next live trace.
func TestTakeBatchDropsAbandonedJobs(t *testing.T) {
	s := newEdgeScheduler(8)
	pts, keys := edgePoints(t, []string{"gcc", "swim"}, []float64{6})
	tickets, _, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	// The race window in miniature: one job loses its waiter without a
	// release call touching the queue.
	s.mu.Lock()
	tickets[0].job.waiters--
	s.mu.Unlock()

	batch := takeBatch(s)
	if len(batch) != 1 || batch[0] != tickets[1].job {
		t.Fatalf("takeBatch claimed %d jobs, want just the live one", len(batch))
	}
	done, jerr := closedWithErr(tickets[0].job)
	if !done || !errors.Is(jerr, errCancelled) {
		t.Fatalf("abandoned job: done=%v err=%v, want cancelled", done, jerr)
	}
	if _, ok := s.inflight[keys[0]]; ok {
		t.Fatal("abandoned job still registered in-flight")
	}
	if got := s.rec.Counter("points_dropped"); got != 1 {
		t.Fatalf("points_dropped = %d, want 1", got)
	}
}

// TestRunBatchRunsJobAbandonedAfterClaim: the claim is past the
// cancellation point. A claimed job whose last waiter leaves still
// runs, fills the cache and counts as done, so every miss ends as
// points_done or points_dropped.
func TestRunBatchRunsJobAbandonedAfterClaim(t *testing.T) {
	// The subtest is named for the batched dispatch path, the only one
	// the scheduler has.
	t.Run("batch=true", testRunBatchRunsJobAbandonedAfterClaim)
}

func testRunBatchRunsJobAbandonedAfterClaim(t *testing.T) {
	s := newEdgeScheduler(8)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	tickets, adm, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	batch := takeBatch(s)
	if len(batch) != 1 {
		t.Fatalf("batch size %d, want 1", len(batch))
	}
	s.release(tickets) // client gone while the batch is in hand
	s.runBatch(nil, batch)
	done, jerr := closedWithErr(tickets[0].job)
	if !done || jerr != nil || tickets[0].job.line == nil {
		t.Fatalf("abandoned claimed job: done=%v err=%v line=%q, want it run", done, jerr, tickets[0].job.line)
	}
	if _, ok := s.cache.Get(keys[0]); !ok {
		t.Fatal("the abandoned job's result missed the cache")
	}
	done1, dropped := s.rec.Counter("points_done"), s.rec.Counter("points_dropped")
	if done1 != 1 || dropped != 0 || int64(adm.misses) != done1+dropped {
		t.Fatalf("points_done = %d, points_dropped = %d, want 1 and 0 for %d miss", done1, dropped, adm.misses)
	}
	if got := s.rec.Counter("simulations"); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
	if len(s.queue) != 0 || len(s.inflight) != 0 || s.running != 0 {
		t.Fatalf("post-batch state leaked: queue %d inflight %d running %d",
			len(s.queue), len(s.inflight), s.running)
	}
}

// TestClaimedJobServesLateJoiner: a request that joins a claimed job —
// here after the job's first requester has left — gets its line from
// the one run, and nothing is requeued or dropped.
func TestClaimedJobServesLateJoiner(t *testing.T) {
	s := newEdgeScheduler(8)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	first, _, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	batch := takeBatch(s)
	s.release(first) // the only requester vanishes after the claim
	second, adm, err := s.admit(pts, keys, "t2")
	if err != nil || adm.joins != 1 || second[0].job != first[0].job {
		t.Fatalf("newcomer should join the claimed job: err=%v %+v", err, adm)
	}
	s.runBatch(nil, batch)
	if done, jerr := closedWithErr(second[0].job); !done || jerr != nil || second[0].job.line == nil {
		t.Fatalf("joined job: done=%v err=%v line=%q", done, jerr, second[0].job.line)
	}
	if len(s.queue) != 0 || len(s.inflight) != 0 || s.running != 0 {
		t.Fatalf("post-batch state leaked: queue %d inflight %d running %d",
			len(s.queue), len(s.inflight), s.running)
	}
	if got := s.rec.Counter("points_dropped"); got != 0 {
		t.Fatalf("points_dropped = %d, want 0", got)
	}
	if got := s.rec.Counter("simulations"); got != 1 {
		t.Fatalf("simulations = %d, want 1 (one run serves both requests)", got)
	}
}

// TestRunGroupedPartitionsByTrace: a mixed queue is claimed one trace
// at a time, in first-seen order, every live point simulates exactly
// once, and each batched line is byte-identical to the point simulated
// alone.
func TestRunGroupedPartitionsByTrace(t *testing.T) {
	// gcc×{6,8} share one trace; swim×{6,8} another.
	pts, keys := edgePoints(t, []string{"gcc", "swim"}, []float64{6, 8})
	if len(pts) != 4 {
		t.Fatalf("grid expanded to %d points, want 4", len(pts))
	}
	s := newEdgeScheduler(8)
	tickets, _, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	var benches []string
	for batch := takeBatch(s); len(batch) > 0; batch = takeBatch(s) {
		for _, j := range batch[1:] {
			if j.ident != batch[0].ident {
				t.Fatalf("batch mixes traces %+v and %+v", batch[0].ident, j.ident)
			}
		}
		benches = append(benches, batch[0].ident.bench)
		s.runBatch(nil, batch)
	}
	if got := strings.Join(benches, ","); got != "176.gcc,171.swim" {
		t.Fatalf("batches claimed for %s, want 176.gcc,171.swim", got)
	}
	for i, tk := range tickets {
		done, jerr := closedWithErr(tk.job)
		if !done || jerr != nil {
			t.Fatalf("point %s: done=%v err=%v", keys[i], done, jerr)
		}
		if want := soloLine(t, keys[i], pts[i]); string(tk.job.line) != want {
			t.Fatalf("batched and solo simulation disagree for %s:\n  batched: %s\n  solo:    %s", keys[i], tk.job.line, want)
		}
	}
	if got := s.rec.Counter("simulations"); got != int64(len(pts)) {
		t.Fatalf("simulations = %d, want %d", got, len(pts))
	}
}

// TestRunBatchRunsAbandonedBatchBesideOtherTrace: when every lane of a
// claimed batch loses its waiters, the batch still runs and fills the
// cache, and the other trace's batch runs too.
func TestRunBatchRunsAbandonedBatchBesideOtherTrace(t *testing.T) {
	pts, keys := edgePoints(t, []string{"gcc", "swim"}, []float64{6, 8})
	s := newEdgeScheduler(8)
	tickets, _, err := s.admit(pts, keys, "t1")
	if err != nil {
		t.Fatal(err)
	}
	gcc, swim := takeBatch(s), takeBatch(s)
	if len(gcc) != 2 || len(swim) != 2 {
		t.Fatalf("batch sizes %d and %d, want 2 and 2", len(gcc), len(swim))
	}
	var abandoned []ticket
	for i, tk := range tickets {
		if pts[i].Benchmark == pts[0].Benchmark {
			abandoned = append(abandoned, tk)
		}
	}
	s.release(abandoned)
	s.runBatch(nil, gcc)
	s.runBatch(nil, swim)
	for i, tk := range tickets {
		if done, jerr := closedWithErr(tk.job); !done || jerr != nil || tk.job.line == nil {
			t.Fatalf("lane %s: done=%v err=%v line=%q", keys[i], done, jerr, tk.job.line)
		}
		if _, ok := s.cache.Get(keys[i]); !ok {
			t.Fatalf("lane %s missed the cache", keys[i])
		}
	}
	if got := s.rec.Counter("simulations"); got != int64(len(pts)) {
		t.Fatalf("simulations = %d, want %d (both batches run)", got, len(pts))
	}
	if got := s.rec.Counter("points_done"); got != int64(len(pts)) {
		t.Fatalf("points_done = %d, want %d", got, len(pts))
	}
}

// TestFinishJobSimulationError: admission doesn't re-validate what it is
// handed (the HTTP layer does), so a direct caller can enqueue a point
// the simulator rejects. The error must surface on the job — uncached,
// stream-visible.
func TestFinishJobSimulationError(t *testing.T) {
	// The subtest is named for the batched dispatch path, the only one
	// the scheduler has.
	t.Run("batch=true", testFinishJobSimulationError)
}

func testFinishJobSimulationError(t *testing.T) {
	s := newEdgeScheduler(8)
	bad := core.PointOptions{Benchmark: "doom", Useful: 8}.Normalize()
	key := bad.Key(edgeVersion)
	tickets, adm, err := s.admit([]core.PointOptions{bad}, []string{key}, "t1")
	if err != nil || adm.misses != 1 {
		t.Fatalf("admit: %v %+v", err, adm)
	}
	s.runBatch(nil, takeBatch(s))
	done, jerr := closedWithErr(tickets[0].job)
	if !done || jerr == nil || !strings.Contains(jerr.Error(), "unknown benchmark") {
		t.Fatalf("bad point: done=%v err=%v, want an unknown-benchmark error", done, jerr)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("a failed simulation landed in the cache")
	}
	if got := s.rec.Counter("points_done"); got != 0 {
		t.Fatalf("points_done = %d for a failed point", got)
	}
}

// TestStreamErrorLine pins the uncached error line's wire shape.
func TestStreamErrorLine(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.streamError(rec, "k123", errors.New("boom"))
	if got, want := rec.Body.String(), `{"error":"boom","key":"k123"}`+"\n"; got != want {
		t.Fatalf("streamError line = %q, want %q", got, want)
	}
}

// TestAdmitMarksEachRequestsFirstJob pins which jobs a worker yields
// after: each request's first job ticket, whether new or joined, and no
// other. A request whose leading points are cache hits leads with its
// first job after them; a job another request leads with stays marked
// when a later request joins it further down its stream; and finalize
// reports the mark.
func TestAdmitMarksEachRequestsFirstJob(t *testing.T) {
	s := newEdgeScheduler(16)
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{4, 6, 8, 10, 12, 14})
	leads := func(tickets []ticket) []bool {
		out := make([]bool, len(tickets))
		for i, tk := range tickets {
			out[i] = tk.job != nil && tk.job.leads
		}
		return out
	}
	want := func(name string, got []bool, want ...bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d tickets, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: leads = %v, want %v", name, got, want)
			}
		}
	}

	// The first two points run and land in the cache.
	first, _, err := s.admit(pts[:2], keys[:2], "warm")
	if err != nil {
		t.Fatal(err)
	}
	want("new request", leads(first), true, false)
	s.runBatch(nil, takeBatch(s))
	if done, err := closedWithErr(first[1].job); !done || err != nil {
		t.Fatalf("warm-up job: done=%v err=%v", done, err)
	}

	// Two hits, then two new jobs: the first new one leads.
	second, adm, err := s.admit(pts[:4], keys[:4], "hits-first")
	if err != nil || adm.hits != 2 || adm.misses != 2 {
		t.Fatalf("second admit: %v %+v", err, adm)
	}
	want("hits first", leads(second), false, false, true, false)

	// A request that joins both in-flight jobs in the other order leads
	// with the one it reaches first; both are now marked.
	third, adm, err := s.admit([]core.PointOptions{pts[3], pts[2]}, []string{keys[3], keys[2]}, "joins")
	if err != nil || adm.joins != 2 {
		t.Fatalf("third admit: %v %+v", err, adm)
	}
	want("joins", leads(third), true, true)
	if third[1].job != second[2].job {
		t.Fatal("the joining request holds a different job for one key")
	}

	for _, tk := range third {
		if !s.finalize(tk.job, []byte("{}\n")) {
			t.Fatalf("finalize of %s did not report the lead", tk.job.key)
		}
	}
	last, _, err := s.admit(pts[4:], keys[4:], "last")
	if err != nil {
		t.Fatal(err)
	}
	want("last", leads(last), true, false)
	if s.finalize(last[1].job, []byte("{}\n")) {
		t.Fatal("finalize reported a lead for a job no request leads with")
	}
}
