package core

import (
	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// WindowPoint is one x-position of Figure 11: the wakeup logic pipelined
// into Stages segments, with IPC relative to the single-stage window.
type WindowPoint struct {
	Stages      int
	RelativeIPC map[trace.Group]float64
	RelativeAll float64
}

// SegmentedWindowSweep reproduces Figure 11: a 32-entry unified instruction
// window at the Alpha 21264's latencies, with wakeup pipelined from 1 to
// maxStages segments. All entries remain visible to selection (the
// selection experiment is separate — see SegmentedSelect). naive selects
// Stark et al.'s pessimistic pipelining instead, where dependent
// instructions can never issue in consecutive cycles. Every stage count
// runs as one batch on the worker pool; the single-stage variant is both
// the first point and the relative-IPC baseline.
func SegmentedWindowSweep(cfg SweepConfig, maxStages int, naive bool) []WindowPoint {
	cfg.fill()
	cfg.Machine.UnifiedWindow = 32
	traces := cfg.traces()
	base := pipeline.Params{Machine: cfg.Machine, Timing: config.Alpha21264Timing(), Warmup: cfg.Warmup}

	mods := make([]func(*pipeline.Params), maxStages)
	for s := 1; s <= maxStages; s++ {
		s := s
		mods[s-1] = func(p *pipeline.Params) {
			p.WindowStages = s
			p.NaivePipelining = naive && s > 1
		}
	}
	pts := runIPCVariants(cfg, traces, base, mods)
	baseline := pts[0] // one wakeup stage: the conventional window

	points := make([]WindowPoint, maxStages)
	for i, v := range pts {
		points[i] = WindowPoint{Stages: i + 1}
		points[i].RelativeIPC, points[i].RelativeAll = v.relativeTo(baseline)
	}
	return points
}

// SelectResult is the Section 5.2 experiment outcome: IPC of the
// partitioned-selection window relative to a single-cycle 32-entry window
// with full select fan-in.
type SelectResult struct {
	RelativeIPC map[trace.Group]float64
	RelativeAll float64
}

// SegmentedSelect reproduces the Figure 12 design evaluation: a 32-entry
// window in four stages with selection fan-in 16 — stage 1's eight entries
// fully visible plus pre-selection quotas of 5, 2 and 1 instructions from
// stages 2, 3 and 4 — compared against the conventional window. The paper
// reports integer IPC down 4% and floating-point down 1%.
func SegmentedSelect(cfg SweepConfig) SelectResult {
	cfg.fill()
	cfg.Machine.UnifiedWindow = 32
	traces := cfg.traces()
	base := pipeline.Params{Machine: cfg.Machine, Timing: config.Alpha21264Timing(), Warmup: cfg.Warmup}

	pts := runIPCVariants(cfg, traces, base, []func(*pipeline.Params){
		nil, // the conventional single-cycle window
		func(p *pipeline.Params) {
			p.WindowStages = 4
			p.PreSelect = []int{5, 2, 1}
		},
	})
	var res SelectResult
	res.RelativeIPC, res.RelativeAll = pts[1].relativeTo(pts[0]) // segmented over conventional
	return res
}
