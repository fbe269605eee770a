package serve

// Concurrency tests for the scheduler's worker pool, on the real
// dispatcher: batches for different traces overlap across workers, a
// single worker serializes them, and close drains everything admitted.
// Progress is observed by deadline polling on the gauges and job done
// channels, never by sleeping.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/store"
)

// admitGrid admits one benchmark's depth grid at n instructions and
// returns its jobs.
func admitGrid(t *testing.T, s *scheduler, bench string, useful []float64, n int) []*job {
	t.Helper()
	req := SweepRequest{Useful: useful, Benchmarks: []string{bench}, Instructions: n, Seed: 3}
	pts, keys, err := req.Points(edgeVersion, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tickets, adm, err := s.admit(pts, keys, bench)
	if err != nil || adm.misses != len(pts) {
		t.Fatalf("admit %s: %v %+v", bench, err, adm)
	}
	jobs := make([]*job, len(tickets))
	for i, tk := range tickets {
		jobs[i] = tk.job
	}
	return jobs
}

// awaitJobs waits for every job to finish with a result line.
func awaitJobs(t *testing.T, jobs []*job) {
	t.Helper()
	for _, j := range jobs {
		select {
		case <-j.done:
			if j.err != nil || j.line == nil {
				t.Fatalf("job %s: err=%v line=%q", j.key, j.err, j.line)
			}
		case <-time.After(clitest.DefaultWait):
			t.Fatalf("job %s never finished", j.key)
		}
	}
}

func countDone(jobs []*job) int {
	n := 0
	for _, j := range jobs {
		select {
		case <-j.done:
			n++
		default:
		}
	}
	return n
}

// longThenShort claims a long 15-lane batch, admits a one-lane request
// for another trace behind it, waits for the short one to finish and
// reports how many long lanes had finished by then.
func longThenShort(t *testing.T, workers int) (longDone, longLanes int) {
	s := newScheduler(workers, 64, store.NewMemory(64, nil), edgeVersion, nil, nil)
	defer s.close()
	var useful []float64
	for u := 2; u <= 16; u++ {
		useful = append(useful, float64(u))
	}
	long := admitGrid(t, s, "gcc", useful, 60000)
	if !clitest.WaitUntil(clitest.DefaultWait, func() bool {
		_, running := s.gauges()
		return running == len(long)
	}) {
		t.Fatal("the long batch was never claimed whole")
	}
	short := admitGrid(t, s, "swim", []float64{8}, 2000)
	awaitJobs(t, short)
	longDone = countDone(long)
	awaitJobs(t, long)
	return longDone, len(long)
}

// TestWorkersOverlapDistinctTraces: with two workers, a request for a
// distinct trace admitted while another batch runs starts on the free
// worker — and, being tiny, finishes — before that batch completes.
func TestWorkersOverlapDistinctTraces(t *testing.T) {
	if done, lanes := longThenShort(t, 2); done == lanes {
		t.Fatalf("the short batch finished only after all %d long lanes: it waited for the busy worker", lanes)
	}
}

// TestSingleWorkerSerializesBatches: with one worker the same short
// batch waits for the whole long batch.
func TestSingleWorkerSerializesBatches(t *testing.T) {
	if done, lanes := longThenShort(t, 1); done != lanes {
		t.Fatalf("the short batch finished with %d of %d long lanes done: one worker ran two batches at once", done, lanes)
	}
}

// TestCloseDrainsAdmittedJobs is the admit-then-drain edge on the real
// dispatcher: close, called straight after admission, returns only once
// every admitted job across several traces has simulated — none is
// stranded or cancelled — and the gauges are back at zero.
func TestCloseDrainsAdmittedJobs(t *testing.T) {
	s := newScheduler(2, 64, store.NewMemory(64, nil), edgeVersion, nil, nil)
	var jobs []*job
	for _, b := range []string{"gcc", "swim", "mcf"} {
		jobs = append(jobs, admitGrid(t, s, b, []float64{6, 8}, 2000)...)
	}
	s.close()
	if n := countDone(jobs); n != len(jobs) {
		t.Fatalf("close returned with %d of %d admitted jobs finished", n, len(jobs))
	}
	awaitJobs(t, jobs)
	if q, r := s.gauges(); q != 0 || r != 0 || len(s.inflight) != 0 {
		t.Fatalf("after close: queue %d running %d inflight %d", q, r, len(s.inflight))
	}
	pts, keys := edgePoints(t, []string{"gcc"}, []float64{6})
	if _, _, err := s.admit(pts, keys, "late"); !errors.Is(err, ErrStopped) {
		t.Fatalf("admit after close = %v, want ErrStopped", err)
	}
}
