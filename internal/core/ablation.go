package core

import (
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// AblationPoint is one machine variant's performance at the optimal clock.
type AblationPoint struct {
	Name    string
	BIPS    map[trace.Group]float64
	AllBIPS float64
	// Relative is AllBIPS versus the baseline machine.
	Relative float64
}

// AblationStudy quantifies the contribution of each modeled mechanism by
// turning it off (or resizing it) on the baseline machine at the optimal
// 6 FO4 clock. It covers the modeling choices DESIGN.md calls out: the
// split issue queues, the register-file-unconstrained in-flight window,
// the branch predictor, the cache hierarchy, and the machine widths. All
// variants run as one batch on the worker pool.
func AblationStudy(cfg SweepConfig) []AblationPoint {
	cfg.fill()
	traces := cfg.traces()
	const useful = 6.0

	type variant struct {
		name string
		mod  func(*pipeline.Params)
	}
	variants := []variant{
		{"baseline (Alpha 21264 at 6 FO4)", nil},
		{"unified 35-entry window", func(p *pipeline.Params) {
			p.Machine.UnifiedWindow = p.Machine.IntWindow + p.Machine.FPWindow
		}},
		{"small in-flight window (ROB 80)", func(p *pipeline.Params) {
			p.Machine.ROB = 80
		}},
		{"perfect branch prediction", func(p *pipeline.Params) {
			p.Machine.PerfectBranches = true
		}},
		{"perfect memory (all L1 hits)", func(p *pipeline.Params) {
			p.Machine.PerfectMemory = true
		}},
		{"half fetch/commit width", func(p *pipeline.Params) {
			p.Machine.FetchWidth = 2
			p.Machine.CommitWidth = 4
		}},
		{"double issue width", func(p *pipeline.Params) {
			p.Machine.IntIssue = 8
			p.Machine.FPIssue = 4
		}},
	}

	specs := make([]pointSpec, len(variants))
	for i, v := range variants {
		specs[i] = cfg.pointSpecFor(useful, v.mod)
	}
	points := runPoints(cfg, specs, traces)

	var out []AblationPoint
	var baseline float64
	for i, v := range variants {
		pt := points[i]
		ap := AblationPoint{Name: v.name, BIPS: pt.GroupBIPS, AllBIPS: pt.AllBIPS}
		if baseline == 0 {
			baseline = pt.AllBIPS
		}
		ap.Relative = ap.AllBIPS / baseline
		out = append(out, ap)
	}
	return out
}

// PrefetchAblation measures the stream-prefetch substitution's effect: the
// suite's BIPS at 6 FO4 with no prefetching at all. The other side of the
// comparison, the profiles' calibrated coverage, is AblationStudy's
// baseline row.
func PrefetchAblation(cfg SweepConfig) float64 {
	cfg.fill()
	const useful = 6.0
	withTr := cfg.traces()
	// Cached traces are shared read-only; derive the no-prefetch variants
	// as clones rather than mutating the shared instances.
	withoutTr := make([]*trace.Trace, len(withTr))
	for i, t := range withTr {
		withoutTr[i] = t.WithPrefetchCoverage(1e-9) // effectively off, deterministically
	}
	return runPoint(cfg, useful, withoutTr, nil).AllBIPS
}
