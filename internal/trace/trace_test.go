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
	ta, tb := p.Generate(5000, 42), p.Generate(5000, 42)
	// Compare every stored byte, mispredict bits and far distances
	// included, then what the readers make of them.
	if !reflect.DeepEqual(ta.s, tb.s) {
		t.Fatal("identical generations store different columns")
	}
	a := decode(t, ta)
	if !reflect.DeepEqual(a, decode(t, tb)) {
		t.Fatal("identical generations differ")
	}
	c := decode(t, p.Generate(5000, 43))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestDependenciesPointBackwardToProducers(t *testing.T) {
	for _, p := range SPEC2000() {
		insts := decode(t, p.Generate(20000, 7))
		for i, in := range insts {
			for _, s := range []int32{in.Src1, in.Src2} {
				if s < -1 || s >= int32(i) {
					t.Fatalf("%s inst %d: source %d out of range", p.Name, i, s)
				}
				if s >= 0 {
					c := insts[s].Class
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
		for i, in := range decode(t, tr) {
			if in.Src1 >= 0 {
				sum += float64(int32(i) - in.Src1)
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
		for k, a := range p.Generate(10000, 21).Columns().MemAddrs {
			if uint64(a) >= p.FootprintBytes+64 {
				t.Fatalf("%s memory access %d: address %d beyond footprint %d",
					p.Name, k, a, p.FootprintBytes)
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
