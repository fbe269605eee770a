package core

import "testing"

func TestAblationStudy(t *testing.T) {
	pts := AblationStudy(testConfig())
	if len(pts) != 7 {
		t.Fatalf("got %d variants, want 7", len(pts))
	}
	byName := map[string]AblationPoint{}
	for _, p := range pts {
		byName[p.Name] = p
		if p.AllBIPS <= 0 {
			t.Errorf("%s: non-positive BIPS", p.Name)
		}
	}
	base := pts[0]
	if base.Relative != 1.0 {
		t.Errorf("baseline relative = %v, want 1", base.Relative)
	}
	// Idealizations must help; resource cuts must hurt.
	if byName["perfect branch prediction"].Relative <= 1.0 {
		t.Error("perfect branches did not help")
	}
	if byName["perfect memory (all L1 hits)"].Relative <= 1.0 {
		t.Error("perfect memory did not help")
	}
	if byName["small in-flight window (ROB 80)"].Relative >= 1.0 {
		t.Error("shrinking the in-flight window did not hurt")
	}
	if byName["half fetch/commit width"].Relative >= 1.0 {
		t.Error("halving the front end did not hurt")
	}
	// Perfect memory is the single biggest lever on this machine: the
	// memory system, not the clock, bounds 2002-era performance — the
	// paper's closing argument for concurrency over frequency.
	if byName["perfect memory (all L1 hits)"].Relative <
		byName["perfect branch prediction"].Relative {
		t.Error("memory idealization weaker than branch idealization; unexpected for this suite")
	}
}

func TestPrefetchAblation(t *testing.T) {
	cfg := testConfig()
	with := AblationStudy(cfg)[0].AllBIPS
	without := PrefetchAblation(cfg)
	if with <= without {
		t.Errorf("prefetching did not help: %.3f vs %.3f", with, without)
	}
	// The substitution is load-bearing: without software prefetch the
	// streaming codes collapse onto DRAM.
	if with/without < 1.1 {
		t.Errorf("prefetch gain only %.2fx; expected a substantial effect", with/without)
	}
}
