package main

// Request generators. Every body depends only on (seed, client, op
// index), never on timing, so a seed names one exact request stream and
// two commits measured with the same seed see the same inputs.

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/serve"
)

// sizes are the instruction counts of a run's traces.
type sizes struct {
	// study sizes the CLI workload's traces so one `pipesweep -fig all`
	// run over its two benchmarks takes about 200 ms, and a phase
	// collects the 100 runs its p90 needs.
	study int

	// cold sizes serve-cold-grid's traces: large enough that the 15-lane
	// core loop dominates a request, small enough for a few hundred
	// requests per run.
	cold int

	// grid sizes the paper grid that serve-warm-hits and
	// serve-disk-mixed prefill and then read.
	grid int

	// write sizes serve-disk-mixed's single-point writes, the paper's
	// 60k-instruction traces.
	write int
}

// benchSizes are the sizes the benchmark runs at; tests shrink them.
var benchSizes = sizes{study: 6000, cold: 12000, grid: 20000, write: 60000}

// writeSeeds is how many fresh trace seeds the disk workload's writes
// cycle through. Every (benchmark, seed) pair generates one trace the
// daemon then keeps forever, so the pool bounds the workload's memory to
// 18 × writeSeeds traces however many writes a run makes.
const writeSeeds = 2

// rng is splitmix64: tiny, deterministic and good enough to pick
// benchmarks and depth ranges.
type rng struct{ s uint64 }

// newRNG seeds a stream from the workload seed and a position in it.
func newRNG(parts ...uint64) *rng {
	r := &rng{}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Stream tags keep the generators' random streams independent.
const (
	streamCold = iota + 1
	streamSubgrid
	streamWrite
	streamSample
)

// paperGrid is the prefill of serve-warm-hits and serve-disk-mixed: all
// 18 benchmarks × useful 2..16 FO4 (270 points).
func paperGrid(seed uint64, n int) serve.SweepRequest {
	return serve.SweepRequest{UsefulMin: 2, UsefulMax: 16, Instructions: n, Seed: seed}
}

// coldRotation is how many benchmarks serve-cold-grid rotates through.
// Each run gives every benchmark of the rotation an equal share of its
// requests, and benchmarks differ in cost, so the latencies are a mix of
// equal classes. With m classes the p50 and p90 sit in the middle of a
// class, never on the edge between two where a one-request change in the
// mix would move them, when m is odd and 0.9·m ends in .5: m = 5 or 15.
const coldRotation = 15

// coldBenchmarks are the first coldRotation benchmarks of the suite.
func coldBenchmarks() []string { return core.BenchmarkNames()[:coldRotation] }

// coldWarmup is serve-cold-grid's untimed warm-up: one unshifted grid
// per benchmark, so every trace exists before timing starts.
func coldWarmup(seed uint64, n int) []serve.SweepRequest {
	var out []serve.SweepRequest
	for _, b := range coldBenchmarks() {
		out = append(out, serve.SweepRequest{UsefulMin: 2, UsefulMax: 16, Benchmarks: []string{b},
			Instructions: n, Seed: seed})
	}
	return out
}

// coldBody is serve-cold-grid request r (r ≥ 1, unique in the run): the
// next benchmark of a seeded rotation × the 15-depth grid shifted by
// δ = r·1e-6 FO4. The shift makes every point a result-cache miss while
// the benchmark's trace stays shared.
func coldBody(seed, r uint64, n int) serve.SweepRequest {
	names := coldBenchmarks()
	off := uint64(newRNG(seed, streamCold).intn(len(names)))
	delta := float64(r) * 1e-6
	return serve.SweepRequest{
		UsefulMin:    2 + delta,
		UsefulMax:    16 + delta,
		Benchmarks:   []string{names[(off+r)%uint64(len(names))]},
		Instructions: n,
		Seed:         seed,
	}
}

// subgridBody is a read of the prefilled paper grid: 1–6 distinct
// benchmarks × a depth sub-range of [2, 16].
func subgridBody(seed, client, k uint64, n int) serve.SweepRequest {
	r := newRNG(seed, streamSubgrid, client, k)
	names := core.BenchmarkNames()
	nb := 1 + r.intn(6)
	for i := 0; i < nb; i++ { // partial Fisher-Yates: the first nb are the pick
		j := i + r.intn(len(names)-i)
		names[i], names[j] = names[j], names[i]
	}
	lo := 2 + r.intn(15)
	hi := lo + r.intn(17-lo)
	return serve.SweepRequest{
		UsefulMin:    float64(lo),
		UsefulMax:    float64(hi),
		Benchmarks:   names[:nb],
		Instructions: n,
		Seed:         seed,
	}
}

// writeBody is serve-disk-mixed write w of client: a single fresh point
// at a seeded depth. The first 18 × writeSeeds writes of a run walk every
// (benchmark, trace seed) pair once, so each run generates the same set
// of traces; a per-write δ keeps every point new to the store.
func writeBody(seed, client, w uint64, n int) serve.SweepRequest {
	g := 2*w + client
	names := core.BenchmarkNames()
	pair := g % uint64(len(names)*writeSeeds)
	depth := 2 + newRNG(seed, streamWrite, client, w).intn(14)
	return serve.SweepRequest{
		Useful:       []float64{float64(depth) + float64(g+1)*1e-6},
		Benchmarks:   []string{names[pair%uint64(len(names))]},
		Instructions: n,
		Seed:         seed + 1 + pair/uint64(len(names)),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // SweepRequest always marshals
	}
	return b
}
