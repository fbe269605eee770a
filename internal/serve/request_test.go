package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func TestPointsExpansionOrderAndDedup(t *testing.T) {
	// The same depth twice and two spellings of one benchmark collapse
	// onto single points; order is useful x stages x benchmark.
	req := SweepRequest{
		Useful:     []float64{8, 8, 6},
		Benchmarks: []string{"gcc", "176.gcc", "swim"},
	}
	pts, keys, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || len(keys) != 4 {
		t.Fatalf("got %d points, want 4 (2 depths x 2 distinct benchmarks)", len(pts))
	}
	want := []struct {
		useful float64
		bench  string
	}{
		{8, "176.gcc"}, {8, "171.swim"}, {6, "176.gcc"}, {6, "171.swim"},
	}
	for i, w := range want {
		if pts[i].Useful != w.useful || pts[i].Benchmark != w.bench {
			t.Errorf("point %d = (%g, %s), want (%g, %s)",
				i, pts[i].Useful, pts[i].Benchmark, w.useful, w.bench)
		}
		if keys[i] != pts[i].Key("v") {
			t.Errorf("keys[%d] does not match pts[%d].Key", i, i)
		}
	}
}

func TestPointsNilAndEmptyBenchmarksMeanFullSuite(t *testing.T) {
	nilReq := SweepRequest{Useful: []float64{8}}
	emptyReq := SweepRequest{Useful: []float64{8}, Benchmarks: []string{}}
	nilPts, nilKeys, err := nilReq.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	emptyPts, emptyKeys, err := emptyReq.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nilPts) != len(core.BenchmarkNames()) {
		t.Fatalf("nil benchmarks expanded to %d points, want the full suite (%d)",
			len(nilPts), len(core.BenchmarkNames()))
	}
	if len(nilPts) != len(emptyPts) {
		t.Fatalf("nil (%d points) and empty (%d points) benchmark lists differ", len(nilPts), len(emptyPts))
	}
	for i := range nilKeys {
		if nilKeys[i] != emptyKeys[i] {
			t.Fatalf("key %d differs between nil and empty benchmark lists", i)
		}
	}
}

func TestPointsRangeForm(t *testing.T) {
	req := SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: 2, Benchmarks: []string{"gcc"}}
	pts, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, p := range pts {
		got = append(got, p.Useful)
	}
	want := []float64{2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("range expanded to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range expanded to %v, want %v", got, want)
		}
	}
}

// TestPointsRangeEndpointIncluded pins index-based grid generation: a
// fractional step must not drift past (and silently drop) the inclusive
// endpoint, and the values must be reproducible run to run.
func TestPointsRangeEndpointIncluded(t *testing.T) {
	req := SweepRequest{UsefulMin: 2, UsefulMax: 16, UsefulStep: 0.1, Benchmarks: []string{"gcc"}}
	pts, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 141 {
		t.Fatalf("2..16 by 0.1 expanded to %d points, want 141", len(pts))
	}
	if first, last := pts[0].Useful, pts[len(pts)-1].Useful; first != 2 || last != 16 {
		t.Fatalf("grid spans [%g, %g], want [2, 16] inclusive", first, last)
	}
	again, _, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Useful != again[i].Useful {
			t.Fatalf("point %d not reproducible: %g vs %g", i, pts[i].Useful, again[i].Useful)
		}
	}
}

// TestPointsRangeBoundedBeforeExpansion is the admission-DoS contract:
// a hostile min/max/step combination must be rejected by arithmetic on
// the range itself — never by iterating it. Each case must return an
// error promptly without allocating the grid.
func TestPointsRangeBoundedBeforeExpansion(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		req  SweepRequest
	}{
		// A denormal step never advances min (1 + 5e-324 == 1): the old
		// accumulation loop span forever.
		{"step smaller than one ULP", SweepRequest{UsefulMin: 1, UsefulMax: 64, UsefulStep: 5e-324}},
		// A huge max used to iterate (and append) until OOM; now it must
		// fail the per-point Useful bound before any expansion.
		{"max beyond the point bound", SweepRequest{UsefulMin: 1, UsefulMax: 1e18}},
		// In-bounds endpoints whose count still exceeds the point limit.
		{"too many points", SweepRequest{UsefulMin: 1, UsefulMax: 64, UsefulStep: 1e-9}},
		{"NaN min", SweepRequest{UsefulMin: nan, UsefulMax: 8}},
		{"NaN max", SweepRequest{UsefulMin: 2, UsefulMax: nan}},
		{"NaN step", SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: nan}},
		{"negative step", SweepRequest{UsefulMin: 2, UsefulMax: 8, UsefulStep: -1}},
	}
	for _, c := range cases {
		c.req.Benchmarks = []string{"gcc"}
		if _, _, err := c.req.Points("v", Limits{MaxPoints: 1024}); err == nil {
			t.Errorf("%s: expansion did not error", c.name)
		}
	}
}

func TestPointsSegmentedWindows(t *testing.T) {
	req := SweepRequest{
		Useful:       []float64{8},
		Benchmarks:   []string{"gcc"},
		Window:       32,
		WindowStages: []int{1, 2, 4},
	}
	pts, keys, err := req.Points("v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3 window-stage configs", len(pts))
	}
	seen := map[string]bool{}
	for i, p := range pts {
		if p.Window != 32 {
			t.Errorf("point %d window = %d, want 32", i, p.Window)
		}
		if seen[keys[i]] {
			t.Errorf("window-stage configs collided on key %s", keys[i])
		}
		seen[keys[i]] = true
	}
}

func TestPointsLimits(t *testing.T) {
	req := SweepRequest{Useful: []float64{2, 4, 6}, Benchmarks: []string{"gcc"}}
	if _, _, err := req.Points("v", Limits{MaxPoints: 2}); err == nil {
		t.Error("expansion past MaxPoints did not error")
	}
	req = SweepRequest{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Instructions: 50_000}
	if _, _, err := req.Points("v", Limits{MaxInstructions: 10_000}); err == nil {
		t.Error("instructions past MaxInstructions did not error")
	}
	if _, _, err := req.Points("v", Limits{MaxInstructions: 50_000}); err != nil {
		t.Errorf("instructions at the limit errored: %v", err)
	}
}

func TestPointsCodeVersionChangesKeys(t *testing.T) {
	req := SweepRequest{Useful: []float64{8}, Benchmarks: []string{"gcc"}}
	_, k1, err := req.Points("v1", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := req.Points("v2", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if k1[0] == k2[0] {
		t.Error("cache key ignores the code version")
	}
}

// referencePoints is the expansion Points replaced, kept verbatim as its
// oracle: it normalizes, validates and hashes every combination of the
// raw lists, duplicates included, and drops a point whose key it has
// seen. Points must return the same points, keys and error text.
func referencePoints(r SweepRequest, codeVersion string, lim Limits) (pts []core.PointOptions, keys []string, err error) {
	gridCap := lim.MaxPoints
	if gridCap <= 0 {
		gridCap = 1 << 20 // callers without a per-request limit still get a sane expansion bound
	}
	grid, err := r.usefulGrid(gridCap)
	if err != nil {
		return nil, nil, err
	}
	benches, err := referenceBenchmarks(r)
	if err != nil {
		return nil, nil, err
	}
	stages := r.WindowStages
	if len(stages) == 0 {
		stages = []int{1}
	}
	if lim.MaxInstructions > 0 && r.Instructions > lim.MaxInstructions {
		return nil, nil, fmt.Errorf("instructions %d exceeds the server limit %d", r.Instructions, lim.MaxInstructions)
	}

	seen := map[string]bool{}
	for _, u := range grid {
		for _, st := range stages {
			for _, b := range benches {
				o := core.PointOptions{
					Machine:         r.Machine,
					Benchmark:       b,
					Useful:          u,
					OverheadFO4:     r.OverheadFO4,
					Window:          r.Window,
					WindowStages:    st,
					PreSelect:       r.PreSelect,
					NaivePipelining: r.NaivePipelining,
					Instructions:    r.Instructions,
					Warmup:          r.Warmup,
					Seed:            r.Seed,
				}.Normalize()
				if err := o.Validate(); err != nil {
					return nil, nil, err
				}
				k := o.Key(codeVersion)
				if seen[k] {
					continue
				}
				seen[k] = true
				pts = append(pts, o)
				keys = append(keys, k)
				if lim.MaxPoints > 0 && len(pts) > lim.MaxPoints {
					return nil, nil, fmt.Errorf("request expands to more than %d points (limit); narrow the grid", lim.MaxPoints)
				}
			}
		}
	}
	return pts, keys, nil
}

// referenceBenchmarks is the benchmark resolution referencePoints used:
// every entry resolved to its suite name, repeats kept.
func referenceBenchmarks(r SweepRequest) ([]string, error) {
	if len(r.Benchmarks) == 0 {
		return core.BenchmarkNames(), nil
	}
	out := make([]string, 0, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		p, ok := core.ProfileByName(b)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", b)
		}
		out = append(out, p.Name)
	}
	return out, nil
}

// checkAgainstReference fails t unless Points and referencePoints agree
// on req: the same points, the same keys, the same error text.
func checkAgainstReference(t testing.TB, req SweepRequest, version string, lim Limits) {
	t.Helper()
	pts, keys, err := req.Points(version, lim)
	wantPts, wantKeys, wantErr := referencePoints(req, version, lim)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%+v, %+v: error %v, reference %v", req, lim, err, wantErr)
	}
	if !reflect.DeepEqual(pts, wantPts) {
		t.Fatalf("%+v, %+v: points\n%+v\nreference\n%+v", req, lim, pts, wantPts)
	}
	if !slices.Equal(keys, wantKeys) {
		t.Fatalf("%+v, %+v: keys %v, reference %v", req, lim, keys, wantKeys)
	}
}

// cycle returns n elements that repeat vals in order.
func cycle[T any](n int, vals ...T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

// TestPointsMatchReference runs requests with repeats on every axis and
// with several faults at once through both expansions, at limits that
// fall before, on and after each fault.
func TestPointsMatchReference(t *testing.T) {
	reqs := []SweepRequest{
		{Useful: []float64{8, 8, 6}, Benchmarks: []string{"gcc", "176.gcc", "swim"}},
		{Useful: []float64{6, 8, 6, 8}, Benchmarks: []string{"swim", "gcc", "SWIM", " gcc "}, Window: 32,
			WindowStages: []int{0, 2, 1, 2, 4, 0}},
		{Useful: []float64{4, 4}, Window: 32, WindowStages: []int{3, 3, 2}, PreSelect: []int{2},
			NaivePipelining: true, Instructions: 3000, Warmup: -1, Seed: 9, OverheadFO4: -1},
		{UsefulMin: 2, UsefulMax: 16, UsefulStep: 2, Benchmarks: []string{"mcf", "mcf"}, Machine: "In-Order"},
		// A step just over half an ULP of 1: index generation rounds
		// neighbouring depths onto one value.
		{UsefulMin: 1, UsefulMax: 1 + 1e-15, UsefulStep: 1.2e-16, Benchmarks: []string{"gcc"}},
		{Useful: cycle(40, 6.0, 4, 8), Benchmarks: []string{"gcc", "swim"}, Window: 16, WindowStages: cycle(40, 2, 1)},
		{Useful: cycle(40, 6.0, 4, 65), Benchmarks: []string{"gcc", "swim"}, Window: 16, WindowStages: cycle(40, 2, 1, 33)},
		// One fault at a time, each behind valid points.
		{Useful: []float64{8, 6, 100, 4}, Benchmarks: []string{"gcc", "swim"}},
		{Useful: []float64{8, 6}, Benchmarks: []string{"gcc", "swim"}, Window: 32, WindowStages: []int{1, 2, 40, 4}},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, WindowStages: []int{1, 1, 2}},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Window: 32, WindowStages: []int{3, 2}, PreSelect: []int{1, 1}},
		// Several faults at once: which one wins depends on where the
		// first invalid point falls.
		{Useful: []float64{8, -1}, Window: 32, WindowStages: []int{1, 64}, Benchmarks: []string{"gcc", "swim"}},
		{Useful: []float64{-1, 8}, Window: 32, WindowStages: []int{64, 1}, Benchmarks: []string{"gcc"}},
		{Machine: "vax", Useful: []float64{-1}, Benchmarks: []string{"gcc"}},
		{Useful: []float64{8}, Benchmarks: []string{"gcc", "doom"}, Instructions: 1 << 30},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Instructions: 1 << 30, Window: 4096},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Instructions: 100, Warmup: 100},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, Window: 32, WindowStages: []int{4}, PreSelect: []int{2, 0}},
		{Useful: []float64{}, UsefulMin: 16, UsefulMax: 2},
		{Useful: []float64{8, math.NaN()}, Benchmarks: []string{"gcc"}},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, OverheadFO4: math.Inf(1)},
		{Useful: []float64{8}, Benchmarks: []string{"gcc"}, OverheadFO4: math.NaN()},
	}
	limits := []Limits{{}, {MaxPoints: 1}, {MaxPoints: 2}, {MaxPoints: 3}, {MaxPoints: 4},
		{MaxPoints: 8}, {MaxPoints: 64, MaxInstructions: 10_000}}
	for _, req := range reqs {
		for _, lim := range limits {
			checkAgainstReference(t, req, "v", lim)
		}
	}
}

// TestPointsLongDuplicateListsExpandFast is the admission-cost contract
// for explicit lists: 2000 copies of one depth × 2000 window-stage
// entries that all mean one stage count, over the whole suite, are 18
// points. An expansion that worked per combination of the raw lists
// would hash 72 million encodings before finding that out.
func TestPointsLongDuplicateListsExpandFast(t *testing.T) {
	req := SweepRequest{Useful: make([]float64, 2000), Window: 32, WindowStages: make([]int, 2000)}
	for i := range req.Useful {
		req.Useful[i] = 8
		req.WindowStages[i] = i % 2 // 0 and 1 both mean one stage
	}
	start := time.Now()
	pts, keys, err := req.Points("v", Limits{MaxPoints: 1024})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expansion took %v", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	one := SweepRequest{Useful: []float64{8}, Window: 32}
	wantPts, wantKeys, err := referencePoints(one, "v", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 18 || !reflect.DeepEqual(pts, wantPts) || !slices.Equal(keys, wantKeys) {
		t.Fatalf("got %d points, want the %d of one depth at one stage count", len(pts), len(wantPts))
	}
}

// TestDistinctKeepsFirstOccurrences covers both of distinct's paths: a
// short list compared with itself and a long one through a set.
func TestDistinctKeepsFirstOccurrences(t *testing.T) {
	long := make([]int, 100)
	for i := range long {
		long[i] = (i * 7) % 40
	}
	cases := []struct{ in, want []int }{
		{nil, nil},
		{[]int{3}, []int{3}},
		{[]int{3, 1, 2}, []int{3, 1, 2}},
		{[]int{3, 1, 3, 2, 1}, []int{3, 1, 2}},
		{long, func() []int {
			out := make([]int, 40)
			for i := range out {
				out[i] = (i * 7) % 40
			}
			return out
		}()},
	}
	for _, c := range cases {
		if got := distinct(c.in); !slices.Equal(got, c.want) {
			t.Errorf("distinct(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []int{1, 2, 3}
	if got := distinct(in); &got[0] != &in[0] {
		t.Error("distinct copied a list without repeats")
	}
}

// warmSubgrids returns n seeded requests shaped like the serve-warm-hits
// reads: 1–6 distinct benchmarks × a depth sub-range of the paper's
// [2, 16] FO4 grid, at one instruction count and trace seed.
func warmSubgrids(n int) []SweepRequest {
	r := rand.New(rand.NewPCG(7, 0))
	reqs := make([]SweepRequest, n)
	for i := range reqs {
		names := core.BenchmarkNames()
		r.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		lo := 2 + r.IntN(15)
		hi := lo + r.IntN(17-lo)
		reqs[i] = SweepRequest{
			UsefulMin:    float64(lo),
			UsefulMax:    float64(hi),
			Benchmarks:   names[:1+r.IntN(6)],
			Instructions: 60000,
			Seed:         7,
		}
	}
	return reqs
}

// BenchmarkSweepRequestPoints is the request-expansion layer: one op
// expands one warm-hits-shaped request into its points and keys.
func BenchmarkSweepRequestPoints(b *testing.B) {
	reqs := warmSubgrids(64)
	lim := Limits{MaxPoints: 1024, MaxInstructions: 1 << 20}
	var points int
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		pts, _, err := reqs[i%len(reqs)].Points("bench-v1", lim)
		if err != nil {
			b.Fatal(err)
		}
		points += len(pts)
	}
	b.ReportMetric(float64(points)/float64(b.N), "points/op")
}
