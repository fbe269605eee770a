package trace_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestDroppedTraceFreesStream pins that nothing process-wide outlives a
// trace: once every reference to a trace and its clones is gone, its
// stream, its columns and the consumer index built from it are garbage,
// however many simulations read them — even while the Scratch that ran
// them is still alive. A cache keyed by a column's address, or holding
// anything derived from one, would keep them alive forever.
func TestDroppedTraceFreesStream(t *testing.T) {
	const watched = 3
	freed := make(chan string, watched)
	s := pipeline.NewScratch()
	func() {
		p, _ := trace.ByName("176.gcc")
		tr := p.Generate(5000, 99)
		runtime.SetFinalizer(trace.StreamOf(tr), func(any) { freed <- "stream" })
		runtime.SetFinalizer(&tr.Columns().Flags[0], func(*uint8) { freed <- "flags column" })

		m := config.Alpha21264()
		params := pipeline.Params{Machine: m, Timing: config.Alpha21264Timing()}
		pipeline.RunWith(params, tr, nil)
		clone := tr.WithPrefetchCoverage(0.5)
		pipeline.RunWith(params, clone, s)
		pipeline.RunWith(params, clone, s)
		ci := clone.ConsumerIndexOf()
		if ci != tr.ConsumerIndexOf() {
			t.Fatal("clone built its own consumer index")
		}
		runtime.SetFinalizer(ci, func(*trace.ConsumerIndex) { freed <- "consumer index" })
	}()

	deadline := time.Now().Add(5 * time.Second)
	for pending := watched; pending > 0; {
		runtime.GC()
		select {
		case <-freed:
			pending--
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of a dropped trace's stream, flags column and consumer index still reachable after GC", pending)
			}
		}
	}
	runtime.KeepAlive(s)
}
