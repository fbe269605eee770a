package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clitest"
)

// TestSmokeAllWorkloads runs every workload, traced, at tiny sizes and
// with no warm-up against freshly built binaries: every oracle must pass
// and every metric must be reported. It asserts nothing about host
// speed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binaries")
	}
	bins := t.TempDir()
	if err := clitest.BuildCmds("..", bins, "./cmd/pipesweep", "./cmd/sweepd"); err != nil {
		t.Fatal(err)
	}
	tiny := sizes{study: 1000, cold: 1000, grid: 1000, write: 2000}
	probe := newHostProbe()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &runner{ctx: context.Background(), name: w.name, seed: 3, minSamples: minSamples, sizes: tiny,
				traced: true, bins: bins, work: t.TempDir(), traceDir: t.TempDir()}
			out, samples, err := runWatched(w.run, r, probe)
			if err != nil {
				t.Fatal(err)
			}
			if h, err := readHost(w.name, samples); err != nil || h.Factor <= 0 {
				t.Errorf("host reading %+v, %v", h, err)
			}
			if !out.correct() {
				t.Fatalf("%d of %d ops failed; oracle problems: %v", out.failed, out.attempted, out.problems)
			}
			for _, m := range endToEndMetrics {
				if _, ok := out.e2e[m.name]; !ok {
					t.Errorf("end-to-end metric %s missing", m.name)
				}
				if _, ok := out.tracedE2E[m.name]; !ok {
					t.Errorf("traced end-to-end metric %s missing", m.name)
				}
			}
			for _, m := range perLayerMetrics {
				if _, ok := out.layers[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			for _, f := range []string{"spans.json", "layers.txt"} {
				if _, err := os.Stat(filepath.Join(r.traceDir, w.name, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
