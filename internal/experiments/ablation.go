package experiments

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
)

// AblationResult is the mechanism-contribution study. Points[0] is the
// baseline machine, which prefetches with the profiles' coverage.
type AblationResult struct {
	Points          []core.AblationPoint
	PrefetchWithout float64
}

// RunAblation measures each modeled mechanism's contribution at the 6 FO4
// optimum, plus the stream-prefetch substitution's effect.
func RunAblation(o Options) AblationResult {
	o = o.fill()
	defer o.Obs.Study("ablation")()
	cfg := o.sweepConfig(config.Alpha21264())
	return AblationResult{Points: core.AblationStudy(cfg), PrefetchWithout: core.PrefetchAblation(cfg)}
}

// Render prints the rows of relative performance, then the prefetch row.
func (a AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation study at the 6 FO4 optimum (all-benchmark harmonic BIPS)")
	for _, p := range a.Points {
		fmt.Fprintf(&b, "  %-36s %7.3f  (%.3fx)\n", p.Name, p.AllBIPS, p.Relative)
	}
	with := a.Points[0].AllBIPS
	fmt.Fprintf(&b, "  %-36s %7.3f → %7.3f (%.2fx)\n",
		"stream prefetch off", with, a.PrefetchWithout, a.PrefetchWithout/with)
	return b.String()
}
