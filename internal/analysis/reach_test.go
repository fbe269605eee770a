package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestSimRootsPinBatchedEntryPoints pins the reachability root set
// through the ok/bad fixture pair under testdata/src/internal/{pipeline,
// core}: the multi-point entry (core.SimulateEach) and the deprecated
// batch wrappers (pipeline.RunBatch, core.SimulateBatch) must each root
// the transitive nondeterminism rule — a clock read in an
// out-of-scope helper is flagged with the chain that makes it
// sim-relevant — while a helper reachable only from a non-root
// (NewBatchScratch) stays silent.
func TestSimRootsPinBatchedEntryPoints(t *testing.T) {
	l := loader(t)
	pkgs := []*analysis.Package{
		fixture(t, l, "internal/pipeline"),
		fixture(t, l, "internal/core"),
		fixture(t, l, "simroots/leaky"),
	}
	nondet, bad := analysis.ByName([]string{"nondeterminism"})
	if bad != "" {
		t.Fatalf("unknown analyzer %q", bad)
	}
	findings := analysis.Run(l, pkgs, nondet, analysis.Options{})

	var viaRunBatch, viaSimulateBatch, viaSimulateEach bool
	for _, f := range findings {
		if f.Rule != "nondeterminism" || !strings.Contains(f.File, "simroots/leaky") {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		chain := strings.Join(f.Chain, " -> ")
		switch {
		case strings.Contains(chain, "pipeline.RunBatch"):
			viaRunBatch = true
		case strings.Contains(chain, "core.SimulateBatch"):
			viaSimulateBatch = true
		case strings.Contains(chain, "core.SimulateEach"):
			viaSimulateEach = true
		case strings.Contains(chain, "NewBatchScratch"):
			t.Errorf("non-root NewBatchScratch produced a chain: %s", f)
		default:
			t.Errorf("finding with unexpected chain %q: %s", chain, f)
		}
	}
	if !viaRunBatch {
		t.Error("pipeline.RunBatch is not rooting reachability: leaky.StampPipe was not flagged")
	}
	if !viaSimulateBatch {
		t.Error("core.SimulateBatch is not rooting reachability: leaky.StampCore was not flagged")
	}
	if !viaSimulateEach {
		t.Error("core.SimulateEach is not rooting reachability: leaky.StampEach was not flagged")
	}
	if len(findings) != 3 {
		t.Errorf("got %d findings, want exactly 3 (StampPipe, StampCore and StampEach; Unreached must stay silent)", len(findings))
	}
}
