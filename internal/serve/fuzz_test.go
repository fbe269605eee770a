package serve

// FuzzSweepRequest hammers the /sweep grid parser — the one spot where
// client-controlled floats meet index arithmetic — with both request
// forms and hostile values. The properties are exactly what the serving
// path relies on downstream: a request either fails fast or expands to a
// bounded, validated, deduplicated point list whose keys are the points'
// own content addresses, deterministically — and, where the raw lists
// are short enough for it to finish, exactly what referencePoints
// expands, error text included.

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// referenceCombos bounds the raw-list product FuzzSweepRequest hands to
// referencePoints, which costs a Validate and a Key per combination.
const referenceCombos = 1 << 15

func FuzzSweepRequest(f *testing.F) {
	seeds := []string{
		// The two request forms at paper-shaped values.
		`{"useful":[6,8],"benchmarks":["gcc"],"instructions":3000}`,
		`{"useful_min":2,"useful_max":16,"useful_step":0.5,"benchmarks":["swim"]}`,
		// Range endpoints that only land inclusively with index-based
		// generation: (16-2)/0.1 is 139.99999999999997.
		`{"useful_min":2,"useful_max":16,"useful_step":0.1,"benchmarks":["mcf"]}`,
		// Hostile floats: denormal step, overflow-adjacent range, a step
		// too small to advance the grid.
		`{"useful_min":2,"useful_max":16,"useful_step":5e-324,"benchmarks":["gcc"]}`,
		`{"useful_min":1e-310,"useful_max":1e308,"benchmarks":["gcc"]}`,
		`{"useful_min":4,"useful_max":1e17,"useful_step":0.001}`,
		// Duplicates in both spellings: the same depth twice, one
		// benchmark under its short and suite names.
		`{"useful":[8,8,8],"benchmarks":["176.gcc","gcc"],"instructions":2000}`,
		// Window variants and the full option surface.
		`{"useful":[4],"window":64,"window_stages":[1,2,4],"preselect":[2],"naive_pipelining":true}`,
		`{"machine":"inorder","useful":[8],"warmup":-1,"seed":18446744073709551615}`,
		// Degenerate grids.
		`{"useful":[]}`,
		`{"useful_min":16,"useful_max":2}`,
		`{"useful":[-1]}`,
		`{"useful_min":-5,"useful_max":-1}`,
		// Long lists of repeats: 100 depths of two values and 100 stage
		// entries that all mean one stage, on two spellings of one
		// benchmark.
		`{"useful":[` + strings.Repeat("8,6,", 49) + `8,6],"window":32,"window_stages":[` +
			strings.Repeat("0,1,", 49) + `0,1],"benchmarks":["gcc","176.gcc"]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	const version = "fuzz-v1"
	lim := Limits{MaxPoints: 64, MaxInstructions: 1 << 20}
	f.Fuzz(func(t *testing.T, body string) {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req SweepRequest
		if err := dec.Decode(&req); err != nil {
			return // the HTTP layer rejects it before expansion
		}
		// The reference works per combination of the raw lists, so it
		// runs only where that product is small. A range grid has at most
		// MaxPoints+1 depths, and no benchmarks means the whole suite.
		depths, benches := len(req.Useful), len(req.Benchmarks)
		if depths == 0 {
			depths = lim.MaxPoints + 1
		}
		if benches == 0 {
			benches = len(core.BenchmarkNames())
		}
		if depths*max(len(req.WindowStages), 1)*benches <= referenceCombos {
			checkAgainstReference(t, req, version, lim)
		}
		pts, keys, err := req.Points(version, lim)
		if err != nil {
			return // rejected: fine, as long as it neither spun nor panicked
		}
		if len(pts) != len(keys) {
			t.Fatalf("%d points but %d keys", len(pts), len(keys))
		}
		if len(pts) == 0 {
			t.Fatalf("Points returned success with an empty expansion for %q", body)
		}
		if len(pts) > lim.MaxPoints {
			t.Fatalf("expansion of %d points exceeds the %d limit", len(pts), lim.MaxPoints)
		}
		seen := make(map[string]bool, len(keys))
		for i, p := range pts {
			if k := p.Key(version); k != keys[i] {
				t.Fatalf("keys[%d] = %q but the point's own address is %q", i, keys[i], k)
			}
			if seen[keys[i]] {
				t.Fatalf("duplicate key %q survived dedup", keys[i])
			}
			seen[keys[i]] = true
			// Points are promised normalized+valid: the scheduler and the
			// cache key both depend on it.
			if nk := p.Normalize().Key(version); nk != keys[i] {
				t.Fatalf("point %d is not normalization-stable: %q vs %q", i, keys[i], nk)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("point %d invalid after successful expansion: %v", i, err)
			}
		}
		// Expansion is deterministic: the same request body yields the
		// same grid in the same order.
		_, again, err := req.Points(version, lim)
		if err != nil {
			t.Fatalf("second expansion failed: %v", err)
		}
		for i := range keys {
			if keys[i] != again[i] {
				t.Fatalf("expansion order unstable at %d: %q vs %q", i, keys[i], again[i])
			}
		}
	})
}
