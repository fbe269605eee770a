package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestGenerateDeterministic(t *testing.T) {
	p, ok := ByName("164.gzip")
	if !ok {
		t.Fatal("missing gzip profile")
	}
	a := p.Generate(5000, 42).Columns()
	b := p.Generate(5000, 42).Columns()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical generations differ")
	}
	c := p.Generate(5000, 43).Columns()
	same := 0
	for i := range a.Flags {
		if a.Flags[i] == c.Flags[i] && a.Dep1[i] == c.Dep1[i] &&
			a.Dep2[i] == c.Dep2[i] && a.Addr[i] == c.Addr[i] {
			same++
		}
	}
	if same == len(a.Flags) {
		t.Error("different seeds produced identical traces")
	}
}

func TestDependenciesPointBackwardToProducers(t *testing.T) {
	for _, p := range SPEC2000() {
		tr := p.Generate(20000, 7)
		cols := tr.Columns()
		for i := range cols.Flags {
			for _, d := range []uint16{cols.Dep1[i], cols.Dep2[i]} {
				s := Producer(int32(i), d)
				if s < -1 || s >= int32(i) {
					t.Fatalf("%s inst %d: source %d out of range", p.Name, i, s)
				}
				if s >= 0 {
					c := ClassOf(cols.Flags[s])
					if c == isa.Store || c == isa.Branch {
						t.Fatalf("%s inst %d depends on non-producer %v", p.Name, i, c)
					}
				}
			}
		}
	}
}

func TestSuiteComposition(t *testing.T) {
	all := SPEC2000()
	if len(all) != 18 {
		t.Fatalf("suite has %d benchmarks, want 18 (Table 2)", len(all))
	}
	if n := len(ByGroup(Integer)); n != 9 {
		t.Errorf("integer count = %d, want 9", n)
	}
	if n := len(ByGroup(VectorFP)); n != 4 {
		t.Errorf("vector FP count = %d, want 4", n)
	}
	if n := len(ByGroup(NonVectorFP)); n != 5 {
		t.Errorf("non-vector FP count = %d, want 5", n)
	}
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestMixRealized(t *testing.T) {
	// The generated class frequencies track the profile weights.
	for _, name := range []string{"176.gcc", "171.swim"} {
		p, _ := ByName(name)
		tr := p.Generate(60000, 11)
		var counts [isa.NumClasses]int
		for _, f := range tr.Columns().Flags {
			counts[ClassOf(f)]++
		}
		total := 0.0
		for _, w := range p.Mix {
			total += w
		}
		for c := 0; c < isa.NumClasses; c++ {
			want := p.Mix[c] / total
			got := float64(counts[c]) / float64(tr.Len())
			if want > 0.02 && (got < want*0.8 || got > want*1.2) {
				t.Errorf("%s class %v: frequency %.3f, want ~%.3f", name, isa.Class(c), got, want)
			}
		}
	}
}

func TestVectorCodesHaveMoreILP(t *testing.T) {
	// Mean dependency distance must be much larger for vector FP than for
	// integer benchmarks — the property behind Figure 4a/5's ordering.
	meanDist := func(tr *Trace) float64 {
		var sum, n float64
		for _, d := range tr.Columns().Dep1 {
			if d != 0 {
				sum += float64(d)
				n++
			}
		}
		return sum / n
	}
	gcc, _ := ByName("176.gcc")
	swim, _ := ByName("171.swim")
	dInt := meanDist(gcc.Generate(40000, 3))
	dVec := meanDist(swim.Generate(40000, 3))
	if dVec < 2*dInt {
		t.Errorf("vector dep distance (%.1f) not ≫ integer (%.1f)", dVec, dInt)
	}
}

func TestBranchOutcomesVaryBySite(t *testing.T) {
	p, _ := ByName("171.swim")
	tr := p.Generate(50000, 5)
	taken, branches := 0, 0
	for _, f := range tr.Columns().Flags {
		if f&FlagBranch != 0 {
			branches++
			if f&FlagTaken != 0 {
				taken++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	// Vector code: loop branches are overwhelmingly taken.
	frac := float64(taken) / float64(branches)
	if frac < 0.75 {
		t.Errorf("vector loop branches taken fraction = %.2f, want > 0.75", frac)
	}
}

func TestRNGProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
			if n := r.Intn(17); n < 0 || n >= 17 {
				return false
			}
			if g := r.Geometric(4); g < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMeanApproximatesTarget(t *testing.T) {
	r := NewRNG(99)
	const mean, n = 8.0, 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(mean)
	}
	got := float64(sum) / n
	if got < mean*0.9 || got > mean*1.1 {
		t.Errorf("geometric mean = %.2f, want ~%.1f", got, mean)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, p := range SPEC2000() {
		tr := p.Generate(10000, 21)
		cols := tr.Columns()
		for i, f := range cols.Flags {
			if f&(FlagLoad|FlagStore) != 0 && uint64(cols.Addr[i]) >= p.FootprintBytes+64 {
				t.Fatalf("%s inst %d: address %d beyond footprint %d",
					p.Name, i, cols.Addr[i], p.FootprintBytes)
			}
		}
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	p, _ := ByName("164.gzip")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	p.Generate(0, 1)
}
