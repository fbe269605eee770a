package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/trace"
)

func TestNormalizeIdempotent(t *testing.T) {
	cases := []PointOptions{
		{},
		{Benchmark: "gcc", Useful: 8},
		{Machine: "Alpha21264", Benchmark: "176.GCC", Useful: 8},
		{Benchmark: "swim", Useful: 6, Warmup: -3, OverheadFO4: -2},
		{Benchmark: "mcf", Useful: 4, Window: 32, WindowStages: 4, PreSelect: []int{8, 8, 8}},
		{Machine: "in-order", Benchmark: "gzip", Useful: 10, Instructions: 1000, Seed: 42},
		{Benchmark: "art", Useful: 8, PreSelect: []int{}},
	}
	for i, o := range cases {
		once := o.Normalize()
		twice := once.Normalize()
		if once.Key("v") != twice.Key("v") {
			t.Errorf("case %d: Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", i, once, twice)
		}
	}
}

func TestKeyEqualForSemanticallyEqualOptions(t *testing.T) {
	base := PointOptions{Benchmark: "gcc", Useful: 8}
	equal := []struct {
		name string
		o    PointOptions
	}{
		{"explicit machine alias", PointOptions{Machine: "alpha21264", Benchmark: "gcc", Useful: 8}},
		{"canonical machine", PointOptions{Machine: MachineOutOfOrder, Benchmark: "gcc", Useful: 8}},
		{"full benchmark name", PointOptions{Benchmark: "176.gcc", Useful: 8}},
		{"benchmark case and space", PointOptions{Benchmark: "  GCC ", Useful: 8}},
		{"explicit default instructions", PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 60000}},
		{"explicit default warmup", PointOptions{Benchmark: "gcc", Useful: 8, Warmup: 12000}},
		{"explicit default seed", PointOptions{Benchmark: "gcc", Useful: 8, Seed: 1}},
		{"explicit default overhead", PointOptions{Benchmark: "gcc", Useful: 8, OverheadFO4: fo4.PaperOverhead.Total()}},
		{"explicit single window stage", PointOptions{Benchmark: "gcc", Useful: 8, WindowStages: 1}},
		{"empty preselect slice", PointOptions{Benchmark: "gcc", Useful: 8, PreSelect: []int{}}},
	}
	want := base.Key("v")
	for _, c := range equal {
		if got := c.o.Key("v"); got != want {
			t.Errorf("%s: key differs from the default spelling", c.name)
		}
	}

	// The two warmup sentinels must also collapse: any negative means none.
	a := PointOptions{Benchmark: "gcc", Useful: 8, Warmup: NoWarmup}
	b := PointOptions{Benchmark: "gcc", Useful: 8, Warmup: -7}
	if a.Key("v") != b.Key("v") {
		t.Error("NoWarmup and other negative warmups hash differently")
	}
	if a.Key("v") == want {
		t.Error("NoWarmup hashes like the default warmup")
	}
}

func TestKeyChangesWithEveryMeaningfulField(t *testing.T) {
	base := PointOptions{
		Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 2,
		PreSelect: []int{8}, Instructions: 10000, Seed: 3,
	}
	variants := []struct {
		name string
		o    PointOptions
	}{
		{"machine", func(o PointOptions) PointOptions { o.Machine = MachineInOrder; return o }(base)},
		{"benchmark", func(o PointOptions) PointOptions { o.Benchmark = "swim"; return o }(base)},
		{"useful", func(o PointOptions) PointOptions { o.Useful = 9; return o }(base)},
		{"overhead", func(o PointOptions) PointOptions { o.OverheadFO4 = 3; return o }(base)},
		{"no overhead", func(o PointOptions) PointOptions { o.OverheadFO4 = NoOverhead; return o }(base)},
		{"window", func(o PointOptions) PointOptions { o.Window = 64; return o }(base)},
		{"stages", func(o PointOptions) PointOptions { o.WindowStages = 4; return o }(base)},
		{"preselect", func(o PointOptions) PointOptions { o.PreSelect = []int{16}; return o }(base)},
		{"naive", func(o PointOptions) PointOptions { o.NaivePipelining = true; return o }(base)},
		{"instructions", func(o PointOptions) PointOptions { o.Instructions = 20000; return o }(base)},
		{"warmup", func(o PointOptions) PointOptions { o.Warmup = 100; return o }(base)},
		{"no warmup", func(o PointOptions) PointOptions { o.Warmup = NoWarmup; return o }(base)},
		{"seed", func(o PointOptions) PointOptions { o.Seed = 4; return o }(base)},
	}
	baseKey := base.Key("v")
	seen := map[string]string{baseKey: "base"}
	for _, v := range variants {
		k := v.o.Key("v")
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", v.name, prev)
		}
		seen[k] = v.name
	}
	if base.Key("v2") == baseKey {
		t.Error("code version does not alter the key")
	}
}

// TestKeyGolden pins Key's bytes. The durable store addresses results
// by key, so a change here orphans every stored result and breaks warm
// restarts; bump pointKeySchema instead. The keys were captured from the
// fmt-based encoding that the strconv one replaced.
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		o    PointOptions
		code string
		want string
	}{
		{PointOptions{Benchmark: "176.gcc", Useful: 6.5, Instructions: 20000, Seed: 1}, "abc",
			"fad3512e8d673d5143b3d602cd32055f2af7abc829237ab13e08464fc76c18f9"},
		{PointOptions{Machine: "inorder", Benchmark: "171.swim", Useful: 4.25, OverheadFO4: 3,
			Window: 32, WindowStages: 4, PreSelect: []int{5, 2, 1}, NaivePipelining: true,
			Instructions: 30000, Warmup: 1000, Seed: 7}, "abc",
			"3821b708f53efbbc5394bc6885e06707e149a00ab46eeae5a2f949dedefe85de"},
		{PointOptions{Benchmark: "mcf", Useful: 1e-7, OverheadFO4: NoOverhead, Warmup: NoWarmup, Seed: 1<<63 + 5}, "",
			"bcb5eede09142cfec18d89629beb6f7def6f61a48908ddedb972223f2066c098"},
	}
	for i, c := range cases {
		if got := c.o.Key(c.code); got != c.want {
			t.Errorf("case %d: Key = %s, want %s", i, got, c.want)
		}
	}
	o := cases[1].o
	if a := testing.AllocsPerRun(100, func() { o.Key("abc") }); a > 1 {
		t.Errorf("Key allocates %v times per call, want at most 1 (its result)", a)
	}
}

func TestValidateRejectsBadPoints(t *testing.T) {
	bad := []struct {
		name string
		o    PointOptions
	}{
		{"unknown machine", PointOptions{Machine: "vax", Benchmark: "gcc", Useful: 8}},
		{"unknown benchmark", PointOptions{Benchmark: "doom", Useful: 8}},
		{"zero useful", PointOptions{Benchmark: "gcc"}},
		{"huge useful", PointOptions{Benchmark: "gcc", Useful: 100}},
		{"warmup eats everything", PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 100, Warmup: 100}},
		{"stages without window", PointOptions{Benchmark: "gcc", Useful: 8, WindowStages: 2}},
		{"too many stages", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 64}},
		{"huge window", PointOptions{Benchmark: "gcc", Useful: 8, Window: 4096}},
		{"preselect too long", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 2, PreSelect: []int{4, 4}}},
		{"preselect nonpositive", PointOptions{Benchmark: "gcc", Useful: 8, Window: 32, WindowStages: 3, PreSelect: []int{4, 0}}},
		{"NaN useful", PointOptions{Benchmark: "gcc", Useful: math.NaN()}},
		{"infinite useful", PointOptions{Benchmark: "gcc", Useful: math.Inf(1)}},
		{"NaN overhead", PointOptions{Benchmark: "gcc", Useful: 8, OverheadFO4: math.NaN()}},
		{"infinite overhead", PointOptions{Benchmark: "gcc", Useful: 8, OverheadFO4: math.Inf(1)}},
		{"negative infinite overhead", PointOptions{Benchmark: "gcc", Useful: 8, OverheadFO4: math.Inf(-1)}},
	}
	for _, c := range bad {
		if err := c.o.Normalize().Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.o)
		}
	}
	good := PointOptions{Benchmark: "gcc", Useful: 8}.Normalize()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected the default point: %v", err)
	}
}

// TestSimulatePointMatchesDepthSweep pins the serving layer's entry point
// to the study path: a single point must reproduce exactly the per-bench
// result DepthSweep computes for the same configuration.
func TestSimulatePointMatchesDepthSweep(t *testing.T) {
	prof, ok := ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	sweep := DepthSweep(SweepConfig{
		Machine:      config.Alpha21264(),
		Overhead:     fo4.PaperOverhead,
		UsefulGrid:   []float64{8},
		Benchmarks:   []trace.Profile{prof},
		Instructions: 5000,
		Workers:      1,
	})
	want := sweep.Points[0].PerBench[0]

	got, err := SimulatePoint(PointOptions{Benchmark: "gcc", Useful: 8, Instructions: 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.IPC != want.IPC || got.BIPS != want.BIPS || got.Stats != want.Stats {
		t.Errorf("SimulatePoint diverges from DepthSweep:\npoint: IPC %v BIPS %v\nsweep: IPC %v BIPS %v",
			got.IPC, got.BIPS, want.IPC, want.BIPS)
	}
}

// referenceKey is the straight-line encoding Key used before keyBuilder,
// kept as its oracle.
func referenceKey(o PointOptions, codeVersion string) string {
	o = o.Normalize()
	var buf [512]byte
	b := append(buf[:0], pointKeySchema...)
	b = append(b, '\n')
	b = append(b, codeVersion...)
	b = append(b, "\nmachine="...)
	b = append(b, o.Machine...)
	b = append(b, "\nbench="...)
	b = append(b, o.Benchmark...)
	b = append(b, "\nuseful="...)
	b = strconv.AppendFloat(b, o.Useful, 'g', -1, 64)
	b = append(b, "\noverhead="...)
	b = strconv.AppendFloat(b, o.OverheadFO4, 'g', -1, 64)
	b = append(b, "\nwindow="...)
	b = strconv.AppendInt(b, int64(o.Window), 10)
	b = append(b, "\nstages="...)
	b = strconv.AppendInt(b, int64(o.WindowStages), 10)
	b = append(b, "\npreselect="...)
	for i, q := range o.PreSelect {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(q), 10)
	}
	b = append(b, "\nnaive="...)
	b = strconv.AppendBool(b, o.NaivePipelining)
	b = append(b, "\nn="...)
	b = strconv.AppendInt(b, int64(o.Instructions), 10)
	b = append(b, "\nwarmup="...)
	b = strconv.AppendInt(b, int64(o.Warmup), 10)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, o.Seed, 10)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeyBuilderReuse keys several points on one builder, in an order
// that changes each varying field alone, long shared fragments included,
// and checks each key against the reference encoding.
func TestKeyBuilderReuse(t *testing.T) {
	bases := []PointOptions{
		{Benchmark: "gcc", Useful: 8},
		{Machine: "inorder", OverheadFO4: 1e-300, Window: 32, PreSelect: []int{7, 6, 5, 4, 3, 2, 1},
			NaivePipelining: true, Instructions: 1 << 40, Warmup: 3, Seed: 1<<64 - 1},
	}
	code := []string{"", "v", strings.Repeat("long code version ", 40)}
	for _, base := range bases {
		for _, v := range code {
			n := base.Normalize()
			var buf [keyBufLen]byte
			kb := newKeyBuilder(buf[:0], v, n)
			for _, u := range []float64{2, 1.0 / 3, -1.2345678901234567e-308} {
				kb.setUseful(u)
				for _, st := range []int{1, 32, -1 << 63} {
					kb.setStages(st)
					for _, b := range []string{"176.gcc", "171.swim", ""} {
						o := n
						o.Benchmark, o.Useful, o.WindowStages = b, u, st
						if got, want := kb.key(b), referenceKey(o, v); got != want {
							t.Fatalf("builder key of %+v (code %q) = %s, reference %s", o, v, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzCacheKey drives Key with arbitrary field values and checks its
// invariants: keys are deterministic under re-normalization (hashing the
// normalized form must be a fixed point) and well-formed (64 hex chars);
// they equal the reference encoding's; and a keyBuilder fed the
// normalized options gives the same key after keying another point.
func FuzzCacheKey(f *testing.F) {
	f.Add("", "gcc", 8.0, 0.0, 0, 0, false, 0, 0, uint64(0))
	f.Add("ooo", "176.gcc", 8.0, 1.8, 32, 2, false, 60000, 12000, uint64(1))
	f.Add("inorder", "swim", 2.5, -1.0, 64, 4, true, 1000, -1, uint64(99))
	f.Add("Alpha21264", "  MCF ", 16.0, 3.6, 0, 1, false, 500, 0, uint64(7))
	f.Fuzz(func(t *testing.T, machine, bench string, useful, overhead float64,
		window, stages int, naive bool, instructions, warmup int, seed uint64) {
		o := PointOptions{
			Machine: machine, Benchmark: bench, Useful: useful,
			OverheadFO4: overhead, Window: window, WindowStages: stages,
			NaivePipelining: naive, Instructions: instructions,
			Warmup: warmup, Seed: seed,
		}
		k1 := o.Key("v")
		if len(k1) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", k1)
		}
		n := o.Normalize()
		if k2 := n.Key("v"); k2 != k1 {
			t.Fatalf("normalized form hashes differently:\nraw:        %+v -> %s\nnormalized: %+v -> %s", o, k1, n, k2)
		}
		if nn := n.Normalize(); nn.Key("v") != k1 {
			t.Fatal("Normalize is not idempotent under Key")
		}
		if ref := referenceKey(o, "v"); ref != k1 {
			t.Fatalf("Key of %+v = %s, reference encoding %s", o, k1, ref)
		}
		var buf [keyBufLen]byte
		kb := newKeyBuilder(buf[:0], "v", n)
		kb.setUseful(n.Useful + 1)
		kb.setStages(n.WindowStages + 1)
		kb.key("another benchmark")
		kb.setUseful(n.Useful)
		kb.setStages(n.WindowStages)
		if got := kb.key(n.Benchmark); got != k1 {
			t.Fatalf("builder key of %+v = %s, Key %s", n, got, k1)
		}
	})
}

// TestProfileLookupsReadTheSuiteInPlace: resolving a benchmark name
// allocates nothing (request expansion does it several times per point),
// and a caller editing the slice SPEC2000 returns cannot change what
// later lookups see.
func TestProfileLookupsReadTheSuiteInPlace(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { ProfileByName("gcc") }); a != 0 {
		t.Errorf("ProfileByName allocates %v times per call, want 0", a)
	}
	want, _ := ProfileByName("176.gcc")
	all := trace.SPEC2000()
	for i := range all {
		all[i].Name = "mutated"
		all[i].DepDistMean = -1
	}
	got, ok := ProfileByName("176.gcc")
	if !ok || got != want {
		t.Errorf("lookup after mutating a SPEC2000 copy = %+v, %v; want %+v", got, ok, want)
	}
	if names := BenchmarkNames(); names[0] == "mutated" {
		t.Errorf("BenchmarkNames sees a mutated SPEC2000 copy: %v", names)
	}
	if p, ok := trace.ByName("176.gcc"); !ok || p != want {
		t.Errorf("trace.ByName after mutation = %+v, %v; want %+v", p, ok, want)
	}
}

// TestProfileIndexMatchesSuiteScan pins the name index against the scan
// it replaced: the first profile, in Table 2 order, whose full name or
// bare name after the SPEC number equals the trimmed, lower-cased input.
func TestProfileIndexMatchesSuiteScan(t *testing.T) {
	scan := func(name string) (trace.Profile, bool) {
		name = strings.ToLower(strings.TrimSpace(name))
		for _, p := range trace.SPEC2000() {
			bare := p.Name
			if i := strings.IndexByte(bare, '.'); i >= 0 {
				bare = bare[i+1:]
			}
			if p.Name == name || bare == name {
				return p, true
			}
		}
		return trace.Profile{}, false
	}
	inputs := []string{"", " ", ".", "gc", "gcc.", "176", "176.", ".gcc", "999.gcc", "176.gzip", "176 gcc", "spec", "mutated"}
	for _, full := range trace.Names() {
		bare := strings.TrimPrefix(full, numberPrefix(full))
		for _, name := range []string{full, bare} {
			inputs = append(inputs, name, strings.ToUpper(name), " "+name+"\t", strings.ToUpper(name)+"  ")
		}
	}
	for _, in := range inputs {
		want, wantOK := scan(in)
		got, ok := ProfileByName(in)
		if ok != wantOK || got != want {
			t.Errorf("ProfileByName(%q) = %q, %v; the suite scan gives %q, %v", in, got.Name, ok, want.Name, wantOK)
		}
	}
}
