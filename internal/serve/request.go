package serve

// The wire schema: a SweepRequest describes a grid the way the study
// drivers do — a depth range, a benchmark subset, optional segmented-
// window configurations — and expands into the per-point tasks the
// scheduler dedupes and caches. Responses stream one PointResult per
// distinct point as NDJSON; per-point lines are built exactly once (by
// the worker that simulates the point) and reused byte-for-byte for
// every client that asks for the same point.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fo4"
	"repro/internal/pipeline"
)

// SweepRequest is the JSON body of POST /sweep. Every field is optional
// except a non-empty grid: omitted fields take the paper defaults, so
// `{}` would mean the full Figure 5 sweep — deliberately rejected in
// favour of an explicit `"useful": []` choice; use `"useful": [2,...,16]`
// or the range form for the full grid.
type SweepRequest struct {
	// Machine is "ooo" (default) or "inorder".
	Machine string `json:"machine,omitempty"`

	// Useful lists the t_useful grid points (FO4) explicitly. When empty
	// the UsefulMin/UsefulMax/UsefulStep range is used instead.
	Useful []float64 `json:"useful,omitempty"`

	// UsefulMin..UsefulMax by UsefulStep (default step 1) is the range
	// form of the grid; the paper's grid is min 2, max 16.
	UsefulMin  float64 `json:"useful_min,omitempty"`
	UsefulMax  float64 `json:"useful_max,omitempty"`
	UsefulStep float64 `json:"useful_step,omitempty"`

	// Benchmarks names the Table 2 subset to run ("gcc" or "176.gcc");
	// nil or empty means the full SPEC 2000 suite.
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Instructions per trace (0 = 60000), Warmup (0 = 20%, -1 = none)
	// and Seed (0 = 1) follow core.SweepConfig's semantics exactly.
	Instructions int    `json:"instructions,omitempty"`
	Warmup       int    `json:"warmup,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`

	// OverheadFO4 is the total per-stage clocking overhead: 0 = the
	// Table 1 default (1.8), -1 = none (Figure 4a's idealization).
	OverheadFO4 float64 `json:"overhead_fo4,omitempty"`

	// Window, when > 0, runs a unified issue window of that many entries;
	// WindowStages lists the segmented-window configurations to evaluate
	// (empty = conventional single-segment only). PreSelect and
	// NaivePipelining select the Section 5 variants.
	Window          int   `json:"window,omitempty"`
	WindowStages    []int `json:"window_stages,omitempty"`
	PreSelect       []int `json:"preselect,omitempty"`
	NaivePipelining bool  `json:"naive_pipelining,omitempty"`
}

// Limits bounds what one request may ask for; the zero value means the
// server defaults (see Config).
type Limits struct {
	MaxPoints       int // distinct points per request
	MaxInstructions int // instructions per trace
}

// usefulGrid resolves the request's depth grid. The range form is fully
// validated before a single point is materialized — the whole range must
// fit the per-point Useful bound and expand to at most maxPoints values —
// so a hostile min/max/step cannot spin or grow memory; admission cost is
// O(points), never O(range). Points are generated by index (min + i*step),
// not by accumulation: u += step drifts, silently dropping the inclusive
// endpoint and producing values that hash differently from the same grid
// sent as an explicit list.
func (r SweepRequest) usefulGrid(maxPoints int) ([]float64, error) {
	if len(r.Useful) > 0 {
		return r.Useful, nil
	}
	if r.UsefulMin == 0 && r.UsefulMax == 0 {
		return nil, fmt.Errorf("empty grid: set useful (e.g. [8]) or useful_min/useful_max")
	}
	min, max, step := r.UsefulMin, r.UsefulMax, r.UsefulStep
	if step == 0 {
		step = 1
	}
	if math.IsNaN(min) || math.IsNaN(max) || math.IsNaN(step) ||
		step < 0 || max < min || min <= 0 {
		return nil, fmt.Errorf("bad useful range: min %g, max %g, step %g", min, max, step)
	}
	if max > core.MaxUseful {
		return nil, fmt.Errorf("useful_max %g exceeds the per-point bound %d FO4", max, core.MaxUseful)
	}
	if min+step == min {
		return nil, fmt.Errorf("useful_step %g is too small to advance the grid from %g", step, min)
	}
	// Bound the count in float space before converting: (max-min)/step can
	// exceed what an int represents, and Go's float→int conversion is
	// implementation-defined out of range.
	span := (max - min) / step
	if span >= float64(maxPoints) {
		return nil, fmt.Errorf("useful range expands to more than %d points (limit); coarsen useful_step or narrow the range", maxPoints)
	}
	// The relative epsilon keeps the endpoint inclusive when span lands a
	// few ULPs under an integer (e.g. (16-2)/0.1 = 139.99999999999997).
	n := int(span*(1+1e-12)+1e-9) + 1
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = min + float64(i)*step
	}
	if grid[n-1] > max {
		grid[n-1] = max // index arithmetic overshot the endpoint by an ULP
	}
	return grid, nil
}

// suiteNames is the benchmark axis of a request that names none: the
// full Table 2 suite. It is never written.
var suiteNames = core.BenchmarkNames()

// benchmarks resolves the request's benchmark subset to suite names
// without repeats, keeping first occurrences, in buf's capacity.
func (r SweepRequest) benchmarks(buf []string) ([]string, error) {
	if len(r.Benchmarks) == 0 {
		return suiteNames, nil
	}
	out := buf[:0]
	for _, b := range r.Benchmarks {
		p, ok := core.ProfileByName(b)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", b)
		}
		if !slices.Contains(out, p.Name) {
			out = append(out, p.Name)
		}
	}
	return out, nil
}

// conventionalWindow is the stage axis of a request that lists none. It
// is never written.
var conventionalWindow = []int{1}

// windowStages is the request's stage axis: 0 folded to 1 as Normalize
// does, without repeats.
func (r SweepRequest) windowStages() []int {
	if len(r.WindowStages) == 0 {
		return conventionalWindow
	}
	stages := r.WindowStages
	if slices.Contains(stages, 0) {
		stages = slices.Clone(stages)
		for i, st := range stages {
			if st == 0 {
				stages[i] = 1
			}
		}
	}
	return distinct(stages)
}

// distinct returns xs without repeats, keeping first occurrences, or xs
// itself when nothing repeats. Its cost is linear in len(xs): a short
// list is compared with itself, a longer one goes through a set.
func distinct[T comparable](xs []T) []T {
	const short = 32
	if len(xs) <= short {
		for i := 1; i < len(xs); i++ {
			if slices.Contains(xs[:i], xs[i]) {
				out := slices.Clone(xs[:i])
				for _, x := range xs[i+1:] {
					if !slices.Contains(out, x) {
						out = append(out, x)
					}
				}
				return out
			}
		}
		return xs
	}
	seen := make(map[T]struct{}, len(xs))
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; !dup {
			seen[x] = struct{}{}
			out = append(out, x)
		}
	}
	return out
}

// Points expands the request into its distinct simulation points, in
// deterministic (useful × window-stages × benchmark) order, each
// normalized and validated. keys[i] is pts[i].Key(codeVersion).
// Duplicate points (an explicit grid listing the same depth twice, or
// two benchmark spellings of one profile) collapse onto one point: each
// axis drops its repeats before the product is formed, so expansion is
// linear in the request's list lengths, with one SHA-256 per distinct
// point. When several things are wrong with a request, the error is the
// one the first invalid point of the product would report, unless the
// request expands past the point limit before reaching it.
func (r SweepRequest) Points(codeVersion string, lim Limits) (pts []core.PointOptions, keys []string, err error) {
	gridCap := lim.MaxPoints
	if gridCap <= 0 {
		gridCap = 1 << 20 // callers without a per-request limit still get a sane expansion bound
	}
	grid, err := r.usefulGrid(gridCap)
	if err != nil {
		return nil, nil, err
	}
	var benchBuf [32]string // room for the whole suite, on the stack
	benches, err := r.benchmarks(benchBuf[:0])
	if err != nil {
		return nil, nil, err
	}
	if lim.MaxInstructions > 0 && r.Instructions > lim.MaxInstructions {
		return nil, nil, fmt.Errorf("instructions %d exceeds the server limit %d", r.Instructions, lim.MaxInstructions)
	}
	g := core.PointGrid{Useful: distinct(grid), Stages: r.windowStages(), Benchmarks: benches}
	pts, keys, err = g.Points(core.PointOptions{
		Machine:         r.Machine,
		OverheadFO4:     r.OverheadFO4,
		Window:          r.Window,
		PreSelect:       r.PreSelect,
		NaivePipelining: r.NaivePipelining,
		Instructions:    r.Instructions,
		Warmup:          r.Warmup,
		Seed:            r.Seed,
	}, codeVersion, lim.MaxPoints)
	if errors.Is(err, core.ErrTooManyPoints) {
		return nil, nil, fmt.Errorf("request expands to more than %d points (limit); narrow the grid", lim.MaxPoints)
	}
	return pts, keys, err
}

// PointResult is one NDJSON line of a sweep response. The line for a
// given key is marshaled exactly once, by the worker that simulated the
// point, so every client streaming that point receives byte-identical
// bytes.
type PointResult struct {
	Key       string  `json:"key"`
	Machine   string  `json:"machine"`
	Benchmark string  `json:"benchmark"`
	Group     string  `json:"group"`
	Useful    float64 `json:"useful"`
	PeriodFO4 float64 `json:"period_fo4"`
	FreqMHz   float64 `json:"freq_mhz"`
	Stages    int     `json:"window_stages,omitempty"`

	IPC   float64        `json:"ipc"`
	BIPS  float64        `json:"bips"`
	Stats pipeline.Stats `json:"stats"`
}

// newPointResult assembles the response line for one simulated point;
// opts must be normalized (the scheduler only holds normalized points).
func newPointResult(key string, opts core.PointOptions, res core.BenchPoint) PointResult {
	clk := opts.Clock()
	pr := PointResult{
		Key:       key,
		Machine:   opts.Machine,
		Benchmark: res.Name,
		Group:     res.Group.String(),
		Useful:    opts.Useful,
		PeriodFO4: clk.PeriodFO4(),
		FreqMHz:   clk.FrequencyHz(fo4.Tech100nm) / 1e6,
		IPC:       res.IPC,
		BIPS:      res.BIPS,
		Stats:     res.Stats,
	}
	if opts.WindowStages > 1 {
		pr.Stages = opts.WindowStages
	}
	return pr
}
