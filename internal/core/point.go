package core

// This file is the point-level entry into the sweep methodology: one
// benchmark simulated at one fully specified clock design point. The
// studies in this package always run whole grids; the serving layer
// (internal/serve) decomposes client requests into these points so that
// overlapping grids from concurrent clients share simulation work
// through a content-addressed result cache. PointOptions therefore
// carries a canonical form (Normalize) and a collision-resistant cache
// key (Key) with the property that semantically equal option values —
// default-filled versus explicit fields, nil versus empty slices — hash
// identically, while every meaningful field change alters the hash.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/fo4"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// NoOverhead requests an explicitly overhead-free clock (Figure 4a's
// idealization). The zero value keeps the meaning "paper default":
// Table 1's 1.8 FO4 decomposition.
const NoOverhead = -1

// MachineOutOfOrder and MachineInOrder are the canonical machine names a
// point may select; Normalize folds aliases onto them.
const (
	MachineOutOfOrder = "ooo"
	MachineInOrder    = "inorder"
)

// machineAliases maps accepted spellings to canonical machine names.
var machineAliases = map[string]string{
	"":           MachineOutOfOrder,
	"ooo":        MachineOutOfOrder,
	"alpha21264": MachineOutOfOrder,
	"inorder":    MachineInOrder,
	"in-order":   MachineInOrder,
}

// PointOptions fully specifies one simulation point: one benchmark on one
// machine at one clock design point, with the optional Section 5 window
// modifications. The zero value of every field means "the paper default"
// (Normalize makes the defaults explicit), except Useful and Benchmark,
// which are required.
type PointOptions struct {
	// Machine selects the simulated core: "ooo" (default, the Alpha
	// 21264-like dynamically scheduled machine) or "inorder".
	Machine string

	// Benchmark names one SPEC 2000 profile from Table 2 (e.g. "gcc").
	Benchmark string

	// Useful is the useful logic per stage in FO4 — the paper's x-axis.
	Useful float64

	// OverheadFO4 is the total per-stage clocking overhead: 0 means the
	// Table 1 default (1.8 FO4, scaled over its latch/skew/jitter
	// decomposition), NoOverhead (-1) means none.
	OverheadFO4 float64

	// Window, when > 0, replaces the machine's split issue queues with a
	// unified window of that many entries (the Section 5 studies use 32).
	Window int

	// WindowStages pipelines the window's wakeup into this many segments;
	// 0 or 1 is the conventional single-segment window. Values above 1
	// require a unified Window.
	WindowStages int

	// PreSelect enables the Figure 12 partitioned selection quotas; nil
	// or empty means full selection visibility.
	PreSelect []int

	// NaivePipelining selects Stark-style pessimistic window pipelining.
	NaivePipelining bool

	// Instructions per benchmark trace; 0 means the 60000 default.
	Instructions int

	// Warmup instructions excluded from IPC: 0 means the default 20% of
	// Instructions, NoWarmup (-1) means none.
	Warmup int

	// Seed for trace generation; 0 means 1.
	Seed uint64
}

// Normalize returns the canonical form of o: aliases folded, defaults
// made explicit, and empty slices nil. It is idempotent —
// o.Normalize().Normalize() == o.Normalize() — so two option values that
// mean the same point always normalize to the same representation, which
// is what Key hashes.
func (o PointOptions) Normalize() PointOptions {
	if c, ok := machineAliases[strings.ToLower(strings.TrimSpace(o.Machine))]; ok {
		o.Machine = c
	} else {
		o.Machine = strings.ToLower(strings.TrimSpace(o.Machine))
	}
	o.Benchmark = strings.ToLower(strings.TrimSpace(o.Benchmark))
	if p, ok := ProfileByName(o.Benchmark); ok {
		o.Benchmark = p.Name
	}
	if o.Instructions == 0 {
		o.Instructions = 60000
	}
	switch {
	case o.Warmup == 0:
		o.Warmup = o.Instructions / 5
	case o.Warmup < 0:
		o.Warmup = NoWarmup
	}
	// A derived warmup can be non-positive (tiny or invalid Instructions
	// pass through to Validate); fold it onto the sentinel so Normalize
	// stays idempotent and "no warmup" has one canonical spelling.
	if o.Warmup <= 0 {
		o.Warmup = NoWarmup
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch {
	case o.OverheadFO4 == 0:
		o.OverheadFO4 = fo4.PaperOverhead.Total()
	case o.OverheadFO4 < 0:
		o.OverheadFO4 = NoOverhead
	}
	if o.WindowStages == 0 {
		o.WindowStages = 1
	}
	if len(o.PreSelect) == 0 {
		o.PreSelect = nil
	}
	return o
}

// MaxUseful is the deepest useful-logic-per-stage value a point may ask
// for, in FO4. The paper's grid tops out at 16; 64 leaves generous
// headroom for shallow-pipeline studies while keeping request expansion
// bounded.
const MaxUseful = 64

// Validate checks a normalized PointOptions; it reports the first
// problem in request-diagnostic form. Callers that accept external input
// should Normalize first (Key and the Simulate entry points do both).
func (o PointOptions) Validate() error {
	if o.Machine != MachineOutOfOrder && o.Machine != MachineInOrder {
		return fmt.Errorf("unknown machine %q (use %q or %q)", o.Machine, MachineOutOfOrder, MachineInOrder)
	}
	if _, ok := ProfileByName(o.Benchmark); !ok {
		return fmt.Errorf("unknown benchmark %q (run traceinfo for the Table 2 suite)", o.Benchmark)
	}
	if o.Useful <= 0 || o.Useful > MaxUseful {
		return fmt.Errorf("useful must be in (0, %d] FO4, got %g", MaxUseful, o.Useful)
	}
	if o.Instructions <= 0 {
		return fmt.Errorf("instructions must be positive, got %d", o.Instructions)
	}
	if o.Warmup != NoWarmup && o.Warmup >= o.Instructions {
		return fmt.Errorf("warmup %d leaves no measured instructions of %d", o.Warmup, o.Instructions)
	}
	if o.WindowStages < 1 || o.WindowStages > 32 {
		return fmt.Errorf("window_stages must be in [1, 32], got %d", o.WindowStages)
	}
	if o.WindowStages > 1 && o.Window <= 0 {
		return fmt.Errorf("window_stages %d requires a unified window size (set window, e.g. 32)", o.WindowStages)
	}
	if o.Window < 0 || o.Window > 1024 {
		return fmt.Errorf("window must be in [0, 1024], got %d", o.Window)
	}
	if len(o.PreSelect) >= o.WindowStages && len(o.PreSelect) > 0 {
		return fmt.Errorf("preselect has %d quotas for %d window stages (stage 1 is always fully visible)", len(o.PreSelect), o.WindowStages)
	}
	for _, q := range o.PreSelect {
		if q <= 0 {
			return fmt.Errorf("preselect quotas must be positive, got %d", q)
		}
	}
	return nil
}

// pointKeySchema versions the cache-key layout itself; bump it when the
// canonical encoding below changes shape.
const pointKeySchema = "repro/point/v1"

// Key returns the content address of this point's result: a SHA-256 over
// the canonical (normalized) option encoding plus the caller's code
// version. Two PointOptions that mean the same simulation — differing
// only in default-vs-explicit fields, alias spellings, or nil-vs-empty
// slices — produce the same key; any meaningful change (and any
// codeVersion change) produces a different one.
//
// The encoding is built on the stack with strconv's Append functions and
// hashed in place, since every served point computes its key.
func (o PointOptions) Key(codeVersion string) string {
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
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// ProfileByName resolves a Table 2 benchmark by its full name
// ("176.gcc") or its bare name after the SPEC number ("gcc"),
// case-insensitively and ignoring surrounding space. It is one map read:
// every served point resolves its benchmark several times.
func ProfileByName(name string) (trace.Profile, bool) {
	p, ok := profileIndex[strings.ToLower(strings.TrimSpace(name))]
	return p, ok
}

// profileIndex maps each suite profile's full and bare names to the
// profile. Where two profiles would claim one spelling, the first in
// Table 2 order keeps it.
var profileIndex = func() map[string]trace.Profile {
	idx := map[string]trace.Profile{}
	for _, p := range trace.SPEC2000() {
		for _, name := range [2]string{p.Name, strings.TrimPrefix(p.Name, numberPrefix(p.Name))} {
			if _, taken := idx[name]; !taken {
				idx[name] = p
			}
		}
	}
	return idx
}()

// numberPrefix returns the "164." style SPEC number prefix of a suite
// name, or "" when there is none.
func numberPrefix(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i+1]
	}
	return ""
}

// BenchmarkNames returns the Table 2 benchmark names in suite order.
func BenchmarkNames() []string { return trace.Names() }

// machine resolves the normalized machine name; Validate has already
// rejected unknown names.
func (o PointOptions) machine() config.Machine {
	if o.Machine == MachineInOrder {
		return config.InOrder7Stage()
	}
	return config.Alpha21264()
}

// overhead resolves OverheadFO4 to the Table 1 decomposition scaled to
// the requested total, the same scaling OverheadSensitivity applies.
func (o PointOptions) overhead() fo4.Overhead {
	if o.OverheadFO4 == NoOverhead {
		return fo4.Overhead{}
	}
	return scaledOverhead(o.OverheadFO4)
}

// scaledOverhead scales Table 1's latch/skew/jitter split to a total of
// total FO4.
func scaledOverhead(total float64) fo4.Overhead {
	t := fo4.PaperOverhead.Total()
	return fo4.Overhead{
		Latch:  fo4.PaperOverhead.Latch * total / t,
		Skew:   fo4.PaperOverhead.Skew * total / t,
		Jitter: fo4.PaperOverhead.Jitter * total / t,
	}
}

// Clock returns the fo4 clock this point resolves to: its useful logic
// depth plus the resolved overhead decomposition.
func (o PointOptions) Clock() fo4.Clock {
	o = o.Normalize()
	return fo4.Clock{Useful: o.Useful, Overhead: o.overhead()}
}

// params resolves the point to concrete simulation parameters and its
// clock.
func (o PointOptions) params() (pipeline.Params, fo4.Clock) {
	m := o.machine()
	if o.Window > 0 {
		m.UnifiedWindow = o.Window
	}
	clk := fo4.Clock{Useful: o.Useful, Overhead: o.overhead()}
	warmup := o.Warmup
	if warmup == NoWarmup {
		warmup = 0
	}
	p := pipeline.Params{
		Machine:         m,
		Timing:          m.Resolve(clk),
		Warmup:          warmup,
		NaivePipelining: o.NaivePipelining,
	}
	if o.WindowStages > 1 {
		p.WindowStages = o.WindowStages
	}
	if len(o.PreSelect) > 0 {
		p.PreSelect = append([]int(nil), o.PreSelect...)
	}
	return p, clk
}

// SimulatePoint runs one point — a one-point SimulateEach — and
// returns its result at the 100nm technology point the paper reports.
func SimulatePoint(o PointOptions, rec *obs.Recorder) (BenchPoint, error) {
	var out BenchPoint
	err := SimulateEach([]PointOptions{o}, nil, rec, func(_ int, p BenchPoint) { out = p })
	return out, err
}

// SimulateEach runs every point of opts, which must share one trace
// (benchmark, instructions, seed), on s (nil means a fresh Scratch): it
// fetches the trace once and calls pipeline.RunWith per point in
// pipeline.GeometryOrder, so s prewarms once per geometry. All points
// are validated before any runs; on success emit gets each point exactly
// once, on the calling goroutine, as soon as it finishes. s must not be
// shared by concurrent calls. rec, observation only, receives the trace
// cache counters and each run's counts (see run), added before its emit.
func SimulateEach(opts []PointOptions, s *pipeline.Scratch, rec *obs.Recorder, emit func(i int, p BenchPoint)) error {
	if len(opts) == 0 {
		return nil
	}
	norm := make([]PointOptions, len(opts))
	for i, o := range opts {
		o = o.Normalize()
		if err := o.Validate(); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
		norm[i] = o
	}
	first := norm[0]
	for i, o := range norm[1:] {
		if o.Benchmark != first.Benchmark || o.Instructions != first.Instructions || o.Seed != first.Seed {
			return fmt.Errorf("point %d simulates trace (%s, n=%d, seed=%d) but point 0 simulates (%s, n=%d, seed=%d); one call shares one trace",
				i+1, o.Benchmark, o.Instructions, o.Seed, first.Benchmark, first.Instructions, first.Seed)
		}
	}
	if s == nil {
		s = pipeline.NewScratch()
	}
	prof, _ := ProfileByName(first.Benchmark)
	tr := cachedTrace(prof, first.Instructions, first.Seed, rec)
	params := make([]pipeline.Params, len(norm))
	clocks := make([]fo4.Clock, len(norm))
	for i, o := range norm {
		params[i], clocks[i] = o.params()
	}
	for _, i := range pipeline.GeometryOrder(params) {
		emit(i, pointResult(run(params[i], tr, s, rec), tr, clocks[i]))
	}
	return nil
}

// Deprecated: SimulateBatch is SimulateEach on bs's Scratch, collecting
// the points in opts order. Kept only for benchmark/probes.go and
// benchmark/serving.go.
func SimulateBatch(opts []PointOptions, bs *pipeline.BatchScratch, rec *obs.Recorder) ([]BenchPoint, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	var s *pipeline.Scratch
	if bs != nil {
		s = bs.Lanes(1)[0]
	}
	out := make([]BenchPoint, len(opts))
	if err := SimulateEach(opts, s, rec, func(i int, p BenchPoint) { out[i] = p }); err != nil {
		return nil, err
	}
	return out, nil
}

func pointResult(st pipeline.Stats, tr *trace.Trace, clk fo4.Clock) BenchPoint {
	freq := clk.FrequencyHz(fo4.Tech100nm)
	return BenchPoint{
		Name:  tr.Name,
		Group: tr.Group,
		IPC:   st.IPC,
		BIPS:  metrics.BIPS(st.IPC, freq),
		Stats: st,
	}
}
