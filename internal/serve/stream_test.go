package serve

// Pins of handleSweep's flush rule: ready lines share socket writes,
// the first line is flushed on its own, and no ready line waits behind
// a simulation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// countingListener hands out connections that count their Write calls;
// each is one socket write. With record set it also keeps a copy of
// every write's bytes.
type countingListener struct {
	net.Listener
	writes atomic.Int64
	record bool

	mu  sync.Mutex
	log [][]byte
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

// reset zeroes the count and drops the recorded writes.
func (l *countingListener) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writes.Store(0)
	l.log = nil
}

// recorded returns the writes kept since the last reset.
func (l *countingListener) recorded() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log
}

type countingConn struct {
	net.Conn
	l *countingListener
}

// Write counts before it writes, so a write whose bytes a client has
// read is always counted.
func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	if c.l.record {
		c.l.mu.Lock()
		c.l.log = append(c.l.log, bytes.Clone(p))
		c.l.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// newCountingServer serves h over httptest on a countingListener.
func newCountingServer(tb testing.TB, h http.Handler, record bool) (*httptest.Server, *countingListener) {
	tb.Helper()
	ts := httptest.NewUnstartedServer(h)
	ln := &countingListener{Listener: ts.Listener, record: record}
	ts.Listener = ln
	ts.Start()
	tb.Cleanup(ts.Close)
	return ts, ln
}

// flushEveryWrite is a ResponseWriter that flushes after each Write: the
// one-write-per-line stream the flush rule replaced, kept as the
// byte-identity reference.
type flushEveryWrite struct{ http.ResponseWriter }

func (w flushEveryWrite) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.ResponseWriter.(http.Flusher).Flush()
	return n, err
}

// TestAllHitSweepCoalescesWrites: an all-hit stream of 45 points leaves
// in buffer-sized writes (at most two more than one per 4 KiB of body),
// not one write per line; its bytes equal the same request streamed
// with a flush after every line; and the first write ends with the
// first line, which is flushed on its own.
func TestAllHitSweepCoalescesWrites(t *testing.T) {
	const req = `{"useful_min":2,"useful_max":16,"benchmarks":["gcc","swim","mcf"],"instructions":2000,"seed":5}`
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts, ln := newCountingServer(t, srv, true)
	postSweepBody(t, ts.URL, req) // fills the cache: every point below is a hit

	ln.reset()
	body := postSweepBody(t, ts.URL, req)
	writes := ln.writes.Load()
	log := ln.recorded()

	ref, refLn := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(flushEveryWrite{w}, r)
	}), false)
	want := postSweepBody(t, ref.URL, req)

	if !bytes.Equal(body, want) {
		t.Fatalf("coalesced body differs from the flush-every-line body:\n got %q\nwant %q", body, want)
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines) - 2; n != 45 { // the trailer and the empty tail after it
		t.Fatalf("stream has %d point lines, want 45", n)
	}
	if refWrites := refLn.writes.Load(); refWrites < 45 {
		t.Fatalf("the flush-every-line reference made %d writes, want at least one per line: the count misses writes", refWrites)
	}
	if bound := 2 + int64((len(body)+4095)/4096); writes > bound {
		t.Fatalf("all-hit stream of %d bytes made %d writes, want at most %d", len(body), writes, bound)
	}
	if len(log) == 0 || !bytes.HasSuffix(log[0], append(bytes.Clone(lines[0]), "\r\n"...)) {
		t.Fatalf("the first write does not end with the first line's chunk; writes = %d", len(log))
	}
}

// TestReadyLinesLeaveBeforeASimulation: a stream whose next point is
// still simulating sends every line that is ready first. The dispatcher
// is stopped so the miss stays unfinished until the test runs it; the
// client must read each hit line while the miss is still pending. With
// one hit, the first-line flush delivers it; with two, only the flush
// before blocking does.
func TestReadyLinesLeaveBeforeASimulation(t *testing.T) {
	for _, hits := range []int{1, 2} {
		t.Run(fmt.Sprintf("hits=%d", hits), func(t *testing.T) { testReadyLinesLeave(t, hits) })
	}
}

func testReadyLinesLeave(t *testing.T, hits int) {
	useful := []float64{6, 8, 10}[:hits+1]
	pts, keys := edgePoints(t, []string{"gcc"}, useful)

	srv := New(Config{Workers: 1, CodeVersion: edgeVersion})
	srv.sched.close() // no dispatcher: the test decides when the miss finishes
	sched := newEdgeScheduler(8)
	srv.sched = sched
	for i := range hits {
		sched.cache.Put(keys[i], []byte(fmt.Sprintf("{\"key\":%q}\n", keys[i])))
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(SweepRequest{Useful: useful, Benchmarks: []string{"gcc"}, Instructions: pts[0].Instructions, Seed: pts[0].Seed})
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled on every exit, so a failed test does not leave the
	// handler blocked on a point nobody will run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines := make(chan string, len(useful)+1)
	go func() {
		defer close(lines)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(body))
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() string {
		t.Helper()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended early")
			}
			return line
		case <-time.After(10 * time.Second):
			t.Fatal("no line within 10s: a ready line is waiting behind the simulation")
		}
		return ""
	}

	for i := range hits {
		if got, want := next(), fmt.Sprintf("{\"key\":%q}", keys[i]); got != want {
			t.Fatalf("line %d = %q, want %q", i, got, want)
		}
	}
	batch := takeBatch(sched)
	if len(batch) != 1 || batch[0].key != keys[hits] {
		t.Fatalf("claimed %d jobs, want the one miss", len(batch))
	}
	if done, _ := closedWithErr(batch[0]); done {
		t.Fatal("the miss finished before its turn")
	}
	sched.runBatch(pipeline.NewScratch(), batch)
	var miss struct{ Key string }
	if err := json.Unmarshal([]byte(next()), &miss); err != nil || miss.Key != keys[hits] {
		t.Fatalf("line %d: key %q, err %v; want key %s", hits, miss.Key, err, keys[hits])
	}
	if got, want := next(), fmt.Sprintf(`{"done":true,"points":%d}`, hits+1); got != want {
		t.Fatalf("trailer = %q, want %q", got, want)
	}
}

// BenchmarkSweepAllHits is the stream-write layer: one op is a 15-point
// sweep whose every point is a memory-store hit, through an httptest
// server. writes/op counts the server's socket writes per sweep.
func BenchmarkSweepAllHits(b *testing.B) {
	const req = `{"useful_min":2,"useful_max":16,"benchmarks":["gcc"],"instructions":2000,"seed":5}`
	srv := New(Config{Workers: 1, Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	ts, ln := newCountingServer(b, srv, false)
	postSweepBody(b, ts.URL, req) // fills the cache: every op below is all hits
	ln.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		postSweepBody(b, ts.URL, req)
	}
	b.StopTimer()
	b.ReportMetric(float64(ln.writes.Load())/float64(b.N), "writes/op")
}
