package wire

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
)

func TestDistancesPlausible(t *testing.T) {
	// At 100nm the 21264-class structures are millimetre-scale: every
	// critical-loop distance should be a fraction of a millimetre to a
	// few millimetres.
	d := Default100nm.EstimateDistances(config.Alpha21264())
	for name, v := range map[string]float64{
		"bypass": d.BypassMm, "load-use": d.LoadUseMm,
		"fetch": d.FetchLoopMm, "window": d.WindowMm,
	} {
		if v < 0.05 || v > 8 {
			t.Errorf("%s distance = %.2f mm, implausible", name, v)
		}
	}
	// The load-use path crosses the (large) data cache: it should be the
	// longest or near-longest path.
	if d.LoadUseMm < d.WindowMm {
		t.Errorf("load-use path (%.2f mm) shorter than window path (%.2f mm)", d.LoadUseMm, d.WindowMm)
	}
}

func TestPenaltiesScaleWithWireModel(t *testing.T) {
	m := Default100nm
	p1 := m.Penalties(config.Alpha21264())
	m.FO4PerMm *= 2
	p2 := m.Penalties(config.Alpha21264())
	if math.Abs(p2.BypassFO4-2*p1.BypassFO4) > 1e-9 {
		t.Error("penalties not linear in FO4PerMm")
	}
}

func TestApplyToTimingAddsCycles(t *testing.T) {
	mc := config.Alpha21264()
	clk := fo4.Clock{Useful: 6, Overhead: fo4.PaperOverhead}
	base := mc.Resolve(clk)
	wired := Default100nm.ApplyToTiming(mc, base)

	if wired.DL1 <= base.DL1 {
		t.Errorf("wire model did not lengthen DL1 (%d vs %d)", wired.DL1, base.DL1)
	}
	if wired.BPred < base.BPred || wired.Window < base.Window {
		t.Error("wire model shortened a structure latency")
	}
	for i := range base.Exec {
		if wired.Exec[i] < base.Exec[i] {
			t.Errorf("wire model shortened exec class %d", i)
		}
	}
	// Memory latency is untouched — it is already absolute time.
	if wired.Mem != base.Mem {
		t.Error("wire model changed memory latency")
	}
}

func TestWirePenaltyGrowsAtDeepClocks(t *testing.T) {
	// The same wire flight time costs more cycles at a faster clock —
	// the Pentium 4's two drive stages, in model form.
	mc := config.Alpha21264()
	deep := Default100nm.ApplyToTiming(mc, mc.Resolve(fo4.Clock{Useful: 2, Overhead: fo4.PaperOverhead}))
	base2 := mc.Resolve(fo4.Clock{Useful: 2, Overhead: fo4.PaperOverhead})
	shallow := Default100nm.ApplyToTiming(mc, mc.Resolve(fo4.Clock{Useful: 12, Overhead: fo4.PaperOverhead}))
	base12 := mc.Resolve(fo4.Clock{Useful: 12, Overhead: fo4.PaperOverhead})

	deepExtra := deep.DL1 - base2.DL1
	shallowExtra := shallow.DL1 - base12.DL1
	if deepExtra < shallowExtra {
		t.Errorf("wire cycles at 2 FO4 (%d) below those at 12 FO4 (%d)", deepExtra, shallowExtra)
	}
	if deepExtra < 1 {
		t.Error("deep clock pays no wire cycles; model inert")
	}
}
