package branch_test

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/trace"
)

// run returns the misprediction rate of the predictor over every branch
// of a synthetic benchmark. A trace's build drives a fresh New() with its
// branches in program order and records each verdict as FlagMispredict,
// so the rate is the flagged share of branches.
func run(t *testing.T, name string, n int) float64 {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	tr := p.Generate(n, 1234)
	branches, miss := 0, 0
	for _, f := range tr.Columns().Flags {
		if f&trace.FlagBranch != 0 {
			branches++
			if f&trace.FlagMispredict != 0 {
				miss++
			}
		}
	}
	return float64(miss) / float64(branches)
}

func TestAlwaysTakenLearned(t *testing.T) {
	pred := branch.New()
	miss := 0
	for i := 0; i < 1000; i++ {
		g := pred.Predict(0x400)
		if !g {
			miss++
		}
		pred.Update(0x400, true, g)
	}
	// The first few outcomes walk the local history through fresh counter
	// entries, so a short warmup tail of misses is expected.
	if miss > 20 {
		t.Errorf("always-taken branch mispredicted %d/1000 times", miss)
	}
}

func TestLoopBranchLearnedByLocalHistory(t *testing.T) {
	// A loop with trip count 5 (TTTTN repeating) is perfectly learnable by
	// 10 bits of local history once warm.
	pred := branch.New()
	pattern := []bool{true, true, true, true, false}
	miss := 0
	for i := 0; i < 5000; i++ {
		taken := pattern[i%len(pattern)]
		g := pred.Predict(0x800)
		if i > 1000 && g != taken {
			miss++
		}
		pred.Update(0x800, taken, g)
	}
	rate := float64(miss) / 4000
	if rate > 0.05 {
		t.Errorf("trip-5 loop mispredict rate = %.3f after warmup, want < 0.05", rate)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	// A 50/50 random branch cannot be predicted: rate should be near 0.5,
	// and certainly above 0.3.
	pred := branch.New()
	r := trace.NewRNG(77)
	for i := 0; i < 20000; i++ {
		taken := r.Float64() < 0.5
		g := pred.Predict(0xC00)
		pred.Update(0xC00, taken, g)
	}
	if rate := pred.MispredictRate(); rate < 0.3 || rate > 0.7 {
		t.Errorf("random branch mispredict rate = %.3f, want ~0.5", rate)
	}
}

func TestBiasedBranchBeatsChance(t *testing.T) {
	// An 80%-taken branch should be predicted taken most of the time:
	// rate near 20%, well below 35%.
	pred := branch.New()
	r := trace.NewRNG(78)
	for i := 0; i < 20000; i++ {
		taken := r.Float64() < 0.8
		g := pred.Predict(0x1000)
		pred.Update(0x1000, taken, g)
	}
	if rate := pred.MispredictRate(); rate > 0.35 {
		t.Errorf("80%% biased branch mispredict rate = %.3f, want < 0.35", rate)
	}
}

func TestSuiteMispredictRatesByGroup(t *testing.T) {
	// The paper's premise: integer codes mispredict far more often than
	// vector FP codes (whose branches are long loops). Check the group
	// character on representative benchmarks.
	gcc := run(t, "176.gcc", 150000)
	swim := run(t, "171.swim", 150000)
	if gcc < 0.04 || gcc > 0.22 {
		t.Errorf("gcc mispredict rate = %.3f, want a SPECint-like 4-22%%", gcc)
	}
	if swim > 0.03 {
		t.Errorf("swim mispredict rate = %.3f, want < 3%% (loop-dominated)", swim)
	}
	if swim >= gcc {
		t.Errorf("vector code (%.3f) mispredicts as much as integer (%.3f)", swim, gcc)
	}
}

func TestChoicePredictorArbitrates(t *testing.T) {
	// Feed a branch that only global history can catch (direction equals
	// the previous different branch's outcome) and confirm the tournament
	// beats a pure local predictor's chance-level performance.
	pred := branch.New()
	r := trace.NewRNG(99)
	last := false
	miss := 0
	const n = 30000
	for i := 0; i < n; i++ {
		// Branch A: random; Branch B: copies A's last outcome.
		a := r.Float64() < 0.5
		ga := pred.Predict(0x2000)
		pred.Update(0x2000, a, ga)
		b := a
		_ = last
		gb := pred.Predict(0x2400)
		if i > 5000 && gb != b {
			miss++
		}
		pred.Update(0x2400, b, gb)
		last = a
	}
	rate := float64(miss) / (n - 5000)
	if rate > 0.15 {
		t.Errorf("correlated branch mispredict rate = %.3f; global history not helping", rate)
	}
}

func TestStatisticsAccounting(t *testing.T) {
	pred := branch.New()
	for i := 0; i < 100; i++ {
		g := pred.Predict(4)
		pred.Update(4, i%2 == 0, g)
	}
	if pred.Lookups != 100 {
		t.Errorf("Lookups = %d, want 100", pred.Lookups)
	}
	if pred.Mispredicts > pred.Lookups {
		t.Error("more mispredicts than lookups")
	}
}
