package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRenderAblation(t *testing.T) {
	a := AblationResult{
		Points:          []core.AblationPoint{{Name: "x", AllBIPS: 1.5, Relative: 1.0}},
		PrefetchWithout: 0.75,
	}
	out := a.Render()
	if !strings.HasPrefix(out, "Ablation study") {
		t.Errorf("render lost its title:\n%s", out)
	}
	if !strings.Contains(out, "1.500  (1.000x)") || !strings.Contains(out, "(0.50x)") {
		t.Errorf("render lost a row:\n%s", out)
	}
}
