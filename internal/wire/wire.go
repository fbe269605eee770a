// Package wire models on-chip wire delay, the paper's stated future work
// (Section 7: "We will examine the effects of wire delays on our pipeline
// models and optimal clock rate selection in future work"). The paper
// argues wires do not change its fixed-microarchitecture conclusions
// because scaled designs shrink their wires; this package lets that claim
// be tested: it estimates communication delays between the pipeline's
// structures from their modeled areas (internal/cacti's area model) and a
// repeated-wire delay-per-millimetre, and exposes them as extra FO4 of
// work on the paths the paper's critical loops traverse.
//
// The delay model follows Ho, Mai and Horowitz ("The future of wires"):
// optimally repeated global wires achieve a delay proportional to wire
// length, roughly constant in FO4 per millimetre at a given technology
// node and rising as technology shrinks (wires do not speed up with
// transistors).
package wire

import (
	"math"

	"repro/internal/cacti"
	"repro/internal/config"
)

// Model holds the wire-delay calibration.
type Model struct {
	// FO4PerMm is the delay of an optimally repeated wire in FO4 per
	// millimetre. Ho et al. put repeated-wire delay at ~60-90 ps/mm at
	// 100nm, i.e. roughly 2 FO4/mm; it grows slowly as technology
	// shrinks because wire RC per unit length worsens.
	FO4PerMm float64

	// Area supplies structure footprints, from which distances derive.
	Area cacti.AreaModel
}

// Default100nm is the calibrated wire model at the paper's design point.
var Default100nm = Model{
	FO4PerMm: 2.0,
	Area:     cacti.DefaultArea100nm,
}

// Distances are the centre-to-centre communication distances (mm) between
// the structures on the paper's critical loops.
type Distances struct {
	BypassMm    float64 // functional units ↔ functional units (the bypass loop)
	LoadUseMm   float64 // functional units ↔ level-1 data cache
	FetchLoopMm float64 // branch predictor ↔ fetch (next-PC loop)
	WindowMm    float64 // issue window ↔ functional units (wakeup tag run)
}

// EstimateDistances derives distances from the machine's structure areas:
// each path spans roughly the sum of the two blocks' half-sides plus a
// routing allowance.
func (m Model) EstimateDistances(mc config.Machine) Distances {
	s := mc.Structures
	dl1Side := cacti.SideMm(m.Area.CacheAreaMm2(s.DL1))
	rfSide := cacti.SideMm(m.Area.RAMAreaMm2(s.RegFile))
	winSide := cacti.SideMm(m.Area.CAMAreaMm2(s.Window, 40))
	bpSide := cacti.SideMm(m.Area.RAMAreaMm2(s.BPredLocalHist) +
		m.Area.RAMAreaMm2(s.BPredGlobal) + m.Area.RAMAreaMm2(s.BPredChoice))
	il1Side := cacti.SideMm(m.Area.CacheAreaMm2(s.IL1))

	const route = 1.15 // Manhattan routing allowance
	return Distances{
		// The execution cluster's extent is set by the register file the
		// units surround.
		BypassMm:    route * rfSide,
		LoadUseMm:   route * (rfSide/2 + dl1Side/2 + 0.3),
		FetchLoopMm: route * (bpSide/2 + il1Side/2 + 0.2),
		WindowMm:    route * (winSide/2 + rfSide/2 + 0.2),
	}
}

// Penalties are the wire delays (FO4) added to each critical path.
type Penalties struct {
	BypassFO4  float64
	LoadUseFO4 float64
	FetchFO4   float64
	WakeupFO4  float64
	Distances  Distances
}

// Penalties converts distances into FO4 of wire flight time.
func (m Model) Penalties(mc config.Machine) Penalties {
	d := m.EstimateDistances(mc)
	return Penalties{
		BypassFO4:  m.FO4PerMm * d.BypassMm,
		LoadUseFO4: m.FO4PerMm * d.LoadUseMm,
		FetchFO4:   m.FO4PerMm * d.FetchLoopMm,
		WakeupFO4:  m.FO4PerMm * d.WindowMm,
		Distances:  d,
	}
}

// ApplyToTiming returns a Timing with the wire penalties folded in: each
// affected latency is re-derived from its work plus the wire flight time,
// at the timing's own clock. This models a floorplan where every critical
// loop pays its communication distance.
func (m Model) ApplyToTiming(mc config.Machine, t config.Timing) config.Timing {
	p := m.Penalties(mc)
	clk := t.Clock
	out := t

	addCycles := func(base int, extraFO4 float64) int {
		if extraFO4 <= 0 {
			return base
		}
		// The structure's own work already fills `base` cycles; the wire
		// adds flight time on top.
		extra := int(math.Ceil(extraFO4/clk.Useful - 1e-9))
		return base + extra
	}
	out.DL1 = addCycles(t.DL1, p.LoadUseFO4)
	out.BPred = addCycles(t.BPred, p.FetchFO4)
	out.Window = addCycles(t.Window, p.WakeupFO4)
	for i := range out.Exec {
		out.Exec[i] = addCycles(t.Exec[i], p.BypassFO4)
	}
	return out
}
