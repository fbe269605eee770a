package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// streams returns the first ops of every generator for one seed, as the
// JSON bodies the benchmark sends.
func streams(seed uint64) [][]byte {
	s := benchSizes
	out := [][]byte{mustJSON(paperGrid(seed, s.grid))}
	for _, b := range coldWarmup(seed, s.cold) {
		out = append(out, mustJSON(b))
	}
	for k := uint64(0); k < 200; k++ {
		out = append(out,
			mustJSON(coldBody(seed, k+1, s.cold)),
			mustJSON(subgridBody(seed, k%2, k, s.grid)),
			mustJSON(writeBody(seed, k%2, k/2, s.write)))
	}
	return out
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 63} {
		a, b := streams(seed), streams(seed)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("seed %d body %d differs between calls:\n%s\n%s", seed, i, a[i], b[i])
			}
		}
	}
	a, b := streams(1), streams(2)
	same := 0
	for i := range a {
		if bytes.Equal(a[i], b[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 generate identical streams")
	}
}

// Every body the generators emit must be accepted by the daemon's own
// expansion under its default limits, and expand to the points the
// workload assumes: an earlier prototype sent one request in six to
// benchmark names that do not exist and measured 400s.
func TestBodiesExpandUnderDefaultLimits(t *testing.T) {
	for _, seed := range []uint64{0, 1, 99, 1 << 63} {
		coldKeys := map[string]bool{}
		writeKeys := map[string]bool{}
		type traceID struct {
			bench string
			seed  uint64
		}
		traces := map[traceID]bool{}
		for _, body := range streams(seed) {
			var req serve.SweepRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, body, err)
			}
			pts, keys, err := req.Points("dev", daemonLimits)
			if err != nil {
				t.Fatalf("seed %d: %s rejected: %v", seed, body, err)
			}
			switch {
			case len(req.Useful) == 1: // a disk write
				if len(keys) != 1 || writeKeys[keys[0]] {
					t.Fatalf("seed %d: write %s is not one fresh point", seed, body)
				}
				writeKeys[keys[0]] = true
				o := pts[0].Normalize()
				traces[traceID{o.Benchmark, o.Seed}] = true
			case req.Instructions == benchSizes.cold && len(req.Benchmarks) == 1 && req.UsefulMin != 2:
				if len(keys) != len(core.PaperGrid()) {
					t.Fatalf("seed %d: cold body %s expands to %d points, want 15", seed, body, len(keys))
				}
				for _, k := range keys {
					if coldKeys[k] {
						t.Fatalf("seed %d: cold body %s repeats point %s", seed, body, k)
					}
					coldKeys[k] = true
				}
			case len(req.Benchmarks) > 0:
				want := len(req.Benchmarks) * int(req.UsefulMax-req.UsefulMin+1)
				if len(keys) != want {
					t.Fatalf("seed %d: %s expands to %d points, want %d", seed, body, len(keys), want)
				}
			}
		}
		if want := len(core.BenchmarkNames()) * writeSeeds; len(traces) != want {
			t.Fatalf("seed %d: writes used %d distinct traces, want %d", seed, len(traces), want)
		}
	}
}

// The study runs two benchmarks instead of the suite; they must split
// their simulations between the in-order and the out-of-order figures as
// the full sweep does (1755 simulations, 540 of them in-order).
func TestStudyKeepsTheFullSweepsFigureMix(t *testing.T) {
	ps := studyProfiles()
	if len(ps) != 2 || ps[0].Group == ps[1].Group || (ps[0].Group != trace.Integer && ps[1].Group != trace.Integer) {
		t.Fatalf("-bench %q matches %v; want one integer and one floating-point benchmark", studyFilter, ps)
	}
	in, ooo := studyLanes(ps)
	fullIn, fullOOO := studyLanes(trace.SPEC2000())
	if fullIn+fullOOO != 1755 || fullIn != 540 {
		t.Fatalf("full sweep: %d in-order + %d out-of-order simulations, want 540 + 1215", fullIn, fullOOO)
	}
	if in*(fullIn+fullOOO) != fullIn*(in+ooo) {
		t.Fatalf("study: %d in-order of %d simulations; the full sweep runs %d of %d", in, in+ooo, fullIn, fullIn+fullOOO)
	}
}
