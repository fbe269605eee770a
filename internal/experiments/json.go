package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/trace"
)

// Machine-readable export: every experiment result marshals to a stable
// JSON shape so downstream tooling (plotting scripts, regression trackers)
// can consume the reproduction without parsing the rendered text.

// SeriesJSON is a generic (x, series...) export for figure-shaped results.
type SeriesJSON struct {
	Title  string               `json:"title"`
	XLabel string               `json:"x_label"`
	X      []float64            `json:"x"`
	Series map[string][]float64 `json:"series"`
}

// JSON exports the depth sweep as one series per benchmark group.
func (d DepthSweepResult) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  d.Title,
		XLabel: "useful FO4 per stage",
		Series: map[string][]float64{},
	}
	for _, p := range d.Sweep.Points {
		out.X = append(out.X, p.Useful)
		out.Series["integer"] = append(out.Series["integer"], p.GroupBIPS[trace.Integer])
		out.Series["vector-fp"] = append(out.Series["vector-fp"], p.GroupBIPS[trace.VectorFP])
		out.Series["non-vector-fp"] = append(out.Series["non-vector-fp"], p.GroupBIPS[trace.NonVectorFP])
		out.Series["all"] = append(out.Series["all"], p.AllBIPS)
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the loop-sensitivity family, one series per loop.
func (f Figure8Result) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  "Figure 8: relative integer IPC vs loop extension",
		XLabel: "cycles added to the loop",
		Series: map[string][]float64{},
	}
	for _, p := range f.Sweeps[0].Points {
		out.X = append(out.X, float64(p.Extra))
	}
	for _, s := range f.Sweeps {
		key := s.Loop.String()
		for _, p := range s.Points {
			out.Series[key] = append(out.Series[key], p.RelativeIPC[trace.Integer])
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the segmented-window sweep.
func (f Figure11Result) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  "Figure 11: relative IPC vs window pipeline depth",
		XLabel: "wakeup stages",
		Series: map[string][]float64{},
	}
	for i, p := range f.Points {
		out.X = append(out.X, float64(p.Stages))
		out.Series["integer"] = append(out.Series["integer"], p.RelativeIPC[trace.Integer])
		out.Series["fp"] = append(out.Series["fp"], FPRelative(p))
		out.Series["naive-integer"] = append(out.Series["naive-integer"],
			f.Naive[i].RelativeIPC[trace.Integer])
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the headline numbers.
func (h Headline) JSON() ([]byte, error) {
	return json.MarshalIndent(h, "", "  ")
}

// JSON exports Figure 1's rows.
func (f Figure1) JSON() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// JSON exports the overhead-sensitivity family, one integer-BIPS series
// per overhead value.
func (f Figure6Result) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  "Figure 6: integer BIPS vs clock period per overhead",
		XLabel: "useful FO4 per stage",
		Series: map[string][]float64{},
	}
	for _, p := range f.Sweeps[0].Points {
		out.X = append(out.X, p.Useful)
	}
	for i, s := range f.Sweeps {
		key := fmt.Sprintf("overhead-%g-fo4", f.OverheadsFO4[i])
		for _, p := range s.Points {
			out.Series[key] = append(out.Series[key], p.GroupBIPS[trace.Integer])
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the capacity-optimization outcome per clock point.
func (f Figure7Result) JSON() ([]byte, error) {
	type point struct {
		Useful       float64 `json:"useful_fo4"`
		BaselineBIPS float64 `json:"baseline_bips"`
		BestBIPS     float64 `json:"optimized_bips"`
		DL1KB        int     `json:"dl1_kb"`
		L2KB         int     `json:"l2_kb"`
		IntWin       int     `json:"int_window"`
		FPWin        int     `json:"fp_window"`
	}
	out := struct {
		Title  string  `json:"title"`
		Points []point `json:"points"`
	}{Title: "Figure 7: structure capacities optimized per clock"}
	for _, p := range f.Points {
		out.Points = append(out.Points, point{
			Useful: p.Useful, BaselineBIPS: p.BaselineBIPS, BestBIPS: p.BestBIPS,
			DL1KB: p.Best.DL1KB, L2KB: p.Best.L2KB,
			IntWin: p.Best.IntWin, FPWin: p.Best.FPWin,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the partitioned-selection evaluation.
func (s SelectResult) JSON() ([]byte, error) {
	out := struct {
		Title       string             `json:"title"`
		RelativeIPC map[string]float64 `json:"relative_ipc"`
		RelativeAll float64            `json:"relative_all"`
	}{
		Title:       "Section 5.2: 4-stage window with partitioned selection",
		RelativeIPC: map[string]float64{},
		RelativeAll: s.Res.RelativeAll,
	}
	for _, g := range trace.Groups() {
		if v, ok := s.Res.RelativeIPC[g]; ok {
			out.RelativeIPC[g.String()] = v
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the Cray-1S comparison as the integer series.
func (c CrayResult) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  "Section 4.2: in-order pipeline with Cray-1S memory",
		XLabel: "useful FO4 per stage",
		Series: map[string][]float64{},
	}
	for _, p := range c.Sweep.Points {
		out.X = append(out.X, p.Useful)
		out.Series["integer"] = append(out.Series["integer"], p.GroupBIPS[trace.Integer])
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the ablation rows plus the prefetch substitution.
func (a AblationResult) JSON() ([]byte, error) {
	type row struct {
		Name     string  `json:"name"`
		AllBIPS  float64 `json:"all_bips"`
		Relative float64 `json:"relative"`
	}
	out := struct {
		Title           string  `json:"title"`
		Rows            []row   `json:"rows"`
		PrefetchWith    float64 `json:"prefetch_with_bips"`
		PrefetchWithout float64 `json:"prefetch_without_bips"`
	}{
		Title:           "Ablation study at the 6 FO4 optimum",
		PrefetchWith:    a.Points[0].AllBIPS,
		PrefetchWithout: a.PrefetchWithout,
	}
	for _, p := range a.Points {
		out.Rows = append(out.Rows, row{Name: p.Name, AllBIPS: p.AllBIPS, Relative: p.Relative})
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the wire study as paired integer series.
func (w WireStudyResult) JSON() ([]byte, error) {
	out := SeriesJSON{
		Title:  "Wire-delay study: integer BIPS with and without wire delays",
		XLabel: "useful FO4 per stage",
		Series: map[string][]float64{},
	}
	for i, p := range w.Without.Points {
		out.X = append(out.X, p.Useful)
		out.Series["no-wires"] = append(out.Series["no-wires"], p.GroupBIPS[trace.Integer])
		out.Series["with-wires"] = append(out.Series["with-wires"],
			w.With.Points[i].GroupBIPS[trace.Integer])
	}
	return json.MarshalIndent(out, "", "  ")
}

// JSON exports the workload characterization rows.
func (w WorkloadTable) JSON() ([]byte, error) {
	type row struct {
		Name           string  `json:"name"`
		Group          string  `json:"group"`
		LoadFrac       float64 `json:"load_frac"`
		StoreFrac      float64 `json:"store_frac"`
		BranchFrac     float64 `json:"branch_frac"`
		MeanDepDist    float64 `json:"mean_dep_dist"`
		MispredictRate float64 `json:"mispredict_rate"`
		L1MissRate     float64 `json:"l1_miss_rate"`
		DRAMRate       float64 `json:"dram_rate"`
	}
	rows := make([]row, 0, len(w.Rows))
	for _, r := range w.Rows {
		rows = append(rows, row{
			Name: r.Name, Group: r.Group.String(),
			LoadFrac: r.LoadFrac, StoreFrac: r.StoreFrac, BranchFrac: r.BranchFrac,
			MeanDepDist: r.MeanDepDist, MispredictRate: r.MispredictRate,
			L1MissRate: r.L1MissRate, DRAMRate: r.DRAMRate,
		})
	}
	return json.MarshalIndent(struct {
		Title string `json:"title"`
		Rows  []row  `json:"rows"`
	}{"Table 2: synthetic workload characterization", rows}, "", "  ")
}
