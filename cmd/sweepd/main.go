// Command sweepd is the sweep-serving daemon: a long-running HTTP front
// end over the simulation library (internal/serve). Clients POST grid
// requests to /sweep and stream per-point results back as NDJSON;
// overlapping grids from concurrent clients share simulation work
// through a content-addressed result cache and singleflight dedup.
//
//	sweepd -addr 127.0.0.1:8080 -workers 0 -queue 4096 -store /var/lib/sweepd
//
// Endpoints:
//
//	POST /sweep    {"useful":[4,8],"benchmarks":["gcc"],"instructions":20000}
//	GET  /healthz  liveness + queue depth; 503 {"status":"draining"} while draining
//	GET  /stats    cache hit ratio, uptime, store economy, telemetry snapshot
//	GET  /metrics  Prometheus text exposition (latency histograms, queue
//	               gauges, store economy, rejects by reason; -metrics=false
//	               disables)
//	GET  /results  ?since=<cursor>: cursor-ordered delta sync (needs -store)
//
// Every request carries an X-Request-Id (an inbound one is honored) that
// is echoed in the response, threaded through scheduler admission and
// simulation, and stamped on each structured access-log line; requests
// slower than -slow-request additionally log at Warn. With -debug-addr
// a second, private listener serves /debug/pprof so a live daemon can be
// profiled without restarting.
//
// With -store DIR every simulated point is appended, write-through, to a
// durable content-addressed segment log; a restarted daemon warm-starts
// from it and serves its whole history byte-identically with zero
// re-simulation. Without -store the daemon is memory-only, exactly as
// before.
//
// SIGINT/SIGTERM drain gracefully: admission stops (new sweeps get 503
// with the -retry-after backoff), in-flight streams run to completion
// within -drain-timeout, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliflags"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	sv := cliflags.RegisterServe()
	tel := cliflags.RegisterTel()
	flag.Parse()
	sv.MustValidate()
	run := tel.MustStart("sweepd")
	run.SetConfig("addr", *sv.Addr)
	run.SetConfig("workers", *sv.Workers)
	run.SetConfig("queue", *sv.Queue)
	run.SetConfig("max_points", *sv.MaxPoints)
	run.SetConfig("max_instructions", *sv.MaxInstructions)
	run.SetConfig("cache", *sv.Cache)
	run.SetConfig("store", *sv.Store)
	run.SetConfig("segment_bytes", *sv.SegmentBytes)
	run.SetConfig("compact_interval", sv.CompactInterval.String())
	run.SetConfig("retry_after", *sv.RetryAfter)
	run.SetConfig("metrics", *sv.Metrics)
	run.SetConfig("slow_request", sv.SlowRequest.String())
	run.SetConfig("debug_addr", *sv.DebugAddr)

	// The durable store and the server must agree on the code version:
	// it is folded into every content address, so a mismatch would
	// version-skip the entire log on replay.
	codeVersion := serve.DefaultCodeVersion()
	var durable *store.Durable
	var resultStore store.ResultStore // nil = serve's in-memory default
	if *sv.Store != "" {
		d, err := store.Open(store.Options{
			Dir:             *sv.Store,
			CacheLimit:      *sv.Cache,
			SegmentBytes:    *sv.SegmentBytes,
			CompactInterval: *sv.CompactInterval,
			CodeVersion:     codeVersion,
			Rec:             run.Recorder(),
			Log:             run.Log,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		durable = d
		resultStore = d
	}

	srv := serve.New(serve.Config{
		Workers:             *sv.Workers,
		QueueLimit:          *sv.Queue,
		MaxPointsPerRequest: *sv.MaxPoints,
		MaxInstructions:     *sv.MaxInstructions,
		CacheLimit:          *sv.Cache,
		CodeVersion:         codeVersion,
		Store:               resultStore,
		RetryAfter:          *sv.RetryAfter,
		Rec:                 run.Recorder(),
		Log:                 run.Log,
		DisableMetrics:      !*sv.Metrics,
		SlowRequest:         *sv.SlowRequest,
	})
	hs := &http.Server{Addr: *sv.Addr, Handler: srv}

	if *sv.DebugAddr != "" {
		// The pprof surface binds its own listener, never the serving
		// one: profiles are an operator tool and must not be reachable
		// through whatever exposes the sweep port. DefaultServeMux is
		// deliberately avoided — a private mux carries only pprof.
		dln, err := net.Listen("tcp", *sv.DebugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "sweepd: debug listening on %s\n", dln.Addr())
		dbg := &http.Server{Handler: dmux}
		// No shutdown plumbing: the debug listener is an operator tap
		// that lives and dies with the process.
		//reprolint:allow gojoin: operator tap with process lifetime; no shutdown plumbing by design
		go dbg.Serve(dln) //reprolint:allow goroutinescope: the debug listener serves pprof beside the main accept loop; it runs no simulation and dies with the process
	}

	ln, err := net.Listen("tcp", *sv.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	// The readiness line goes to stderr (stdout stays free for tooling
	// that pipes sweep output) and reports the resolved port for -addr :0.
	fmt.Fprintf(os.Stderr, "sweepd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	// The listener needs its own goroutine so main can watch for
	// signals; all simulation work stays behind the deterministic
	// executor inside internal/serve.
	//reprolint:allow gojoin: the accept loop joins through the buffered errc receive in the select below and dies with the process
	go func() { errc <- hs.Serve(ln) }() //reprolint:allow goroutinescope: the HTTP accept loop must run beside the signal watcher; simulation parallelism stays behind the executor inside internal/serve

	exit := 0
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "error:", err)
			exit = 1
		}
	case <-ctx.Done():
		stop()
		run.Log.Info("draining", "timeout", *sv.DrainTimeout)
		srv.BeginDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *sv.DrainTimeout)
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "error: drain incomplete:", err)
			exit = 1
		}
		cancel()
	}
	srv.Close()
	if durable != nil {
		// After the scheduler drains there are no more Puts; the store
		// stops its coordinator, syncs the tail and closes its files.
		if err := durable.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "error: store close:", err)
			exit = 1
		}
	}
	cliflags.MustClose(run)
	os.Exit(exit)
}
