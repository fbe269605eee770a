package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// goldenOpts keeps the golden runs quick. Its filter matches five
// benchmarks (253.perlbmk, 300.twolf, 173.applu, 178.galgel, 189.lucas),
// so every benchmark group has a member and every group series is
// populated.
var goldenOpts = Options{Instructions: 3000, Bench: "l"}

// goldenResult is what every pinned study returns.
type goldenResult interface {
	Render() string
	JSON() ([]byte, error)
}

// TestStudiesGolden pins the JSON and the rendered text of the studies
// that search or stretch around a baseline machine — Figure 7, Figure 8,
// the ablation and the Section 7 headline — byte for byte. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run StudiesGolden.
func TestStudiesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() goldenResult
	}{
		{"figure7", func() goldenResult {
			return RunFigure7(goldenOpts)
		}},
		{"figure8", func() goldenResult {
			return RunFigure8(goldenOpts)
		}},
		{"ablation", func() goldenResult {
			return RunAblation(goldenOpts)
		}},
		{"headline", func() goldenResult {
			return HeadlineOf(RunFigure5(goldenOpts))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run()
			raw, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got := string(raw) + "\n" + res.Render()
			golden := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", tc.name, golden, got, want)
			}
		})
	}
}

// TestStudySimulationCounts pins how many simulations each study runs, so
// a driver that asks for a cell it already holds fails here even when its
// output stays the same.
func TestStudySimulationCounts(t *testing.T) {
	nb := len(MatchBenchmarks(goldenOpts.Bench))
	fig5 := RunFigure5(goldenOpts)
	for _, tc := range []struct {
		name string
		run  func(Options)
		want int
	}{
		// Seven clock points, each the baseline plus eight distinct
		// candidates: four DL1 sizes, then two new L2 sizes and two new
		// windows (the third of each is the winner so far).
		{"figure7", func(o Options) { RunFigure7(o) }, (1 + 8) * 7 * nb},
		// The baseline, then 1..15 extra cycles on each of three loops.
		{"figure8", func(o Options) { RunFigure8(o) }, (1 + 3*15) * nb},
		// Seven machine variants, then the suite without prefetching.
		{"ablation", func(o Options) { RunAblation(o) }, 8 * nb},
		{"headline", func(Options) { HeadlineOf(fig5) }, 0},
	} {
		o := goldenOpts
		o.Obs = obs.New(nil)
		tc.run(o)
		if got := o.Obs.Snapshot().Counters["simulations"]; got != int64(tc.want) {
			t.Errorf("%s ran %d simulations, want %d", tc.name, got, tc.want)
		}
	}
}
