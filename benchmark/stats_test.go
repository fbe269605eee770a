package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{999, 0.99, 0},
		{1000, 0.99, 990},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want a refusal", c.p*100, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

// Run-to-run spreads are judged with Python's
// statistics.quantiles(n=4); these expectations are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, StartUS: 10, EndUS: 30},
		{ID: 2, Parent: 0, StartUS: 20, EndUS: 50},  // overlaps span 1
		{ID: 3, Parent: 0, StartUS: 90, EndUS: 120}, // reaches past its parent
		{ID: 4, Parent: 1, StartUS: 12, EndUS: 18},  // a grandchild
		{ID: 5, Parent: -1, StartUS: 200, EndUS: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 50, 1: 14, 2: 30, 3: 30, 4: 6, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eBound{Name: "ttt_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name       string
		b          []float64
		unresolved bool
		want       string
	}{
		{"same", base, false, "unchanged"},
		{"faster", shift(-20), false, "improved"},
		{"slower past the bound", shift(15), false, "regressed"},
		{"slower within the bound", shift(5), false, "unchanged"},
		{"an unstable run", shift(-20), true, "unresolved"},
	} {
		if got, _ := verdict(lower, base, c.b, c.unresolved); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	if got, _ := verdict(lower, noisy, noisy, false); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}

	// setup_s resolves changes of its bound or 50 ms, whichever is larger.
	setup := e2eBound{Name: "setup_s", Better: "lower", Bound: 0.25}
	ms3 := []float64{0.003, 0.002, 0.004, 0.003, 0.0025, 0.0035, 0.003, 0.002, 0.004, 0.003}
	ms6 := make([]float64, len(ms3))
	for i, x := range ms3 {
		ms6[i] = 2 * x
	}
	if got, _ := verdict(setup, ms3, ms6, false); got != "unchanged" {
		t.Errorf("setup_s 3 ms → 6 ms: verdict %s, want unchanged (inside the 50 ms floor)", got)
	}
	s1 := []float64{1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0}
	s2 := make([]float64, len(s1))
	for i, x := range s1 {
		s2[i] = 1.3 * x
	}
	if got, _ := verdict(setup, s1, s2, false); got != "regressed" {
		t.Errorf("setup_s 1 s → 1.3 s: verdict %s, want regressed", got)
	}
}

// A run whose reference job took 1.2× nominal while the hypervisor stole
// a quarter of the time the VM wanted ran on a host 1.6× slower than
// nominal; its times are reported divided by that, its rates multiplied.
func TestHostFactor(t *testing.T) {
	job := hostNominal * 12 / 10
	var samples []hostSample
	for i := int64(0); i < 12; i++ {
		s := hostSample{job: job, steal: 25 * i, wanted: 100 * i}
		if i >= 8 { // the last third: no steal
			s.steal, s.wanted = 200, 100*i
		}
		samples = append(samples, s)
	}
	if f := hostFactor(samples[:9]); math.Abs(f-1.6) > 1e-9 {
		t.Errorf("host factor %v, want 1.6", f)
	}
	h, err := readHost("w", samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Before-1.6) > 1e-9 || math.Abs(h.After-1.2) > 1e-9 || !h.Unstable {
		t.Errorf("drift guard read %v → %v (unstable %v), want 1.6 → 1.2, unstable", h.Before, h.After, h.Unstable)
	}
	ms := metricDef{"ttt_p50_ms", "ms", false}
	rate := metricDef{"points_per_s", "1/s", true}
	mem := metricDef{"rss_mb", "MB", false}
	if got := onNominalHost(ms, 16, 1.6); got != 10 {
		t.Errorf("16 ms on a 1.6× slow host reads %v on the nominal one, want 10", got)
	}
	if got := onNominalHost(rate, 10, 1.6); got != 16 {
		t.Errorf("10/s on a 1.6× slow host reads %v on the nominal one, want 16", got)
	}
	if got := onNominalHost(mem, 50, 1.6); got != 50 {
		t.Errorf("memory is not scaled: got %v, want 50", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || (m.Better == "higher") != want[i].higherBetter {
				t.Errorf("%s %d: BENCHMARK.json %s [%s, %s], program %+v", kind, i, m.Name, m.Unit, m.Better, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
