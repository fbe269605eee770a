package experiments

import (
	"encoding/json"
	"testing"
)

func TestDepthSweepJSON(t *testing.T) {
	res := RunFigure5(opts)
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
	if len(back.X) != 15 {
		t.Errorf("x has %d points, want 15", len(back.X))
	}
	for _, key := range []string{"integer", "vector-fp", "non-vector-fp", "all"} {
		s, ok := back.Series[key]
		if !ok || len(s) != len(back.X) {
			t.Errorf("series %q missing or wrong length", key)
		}
		for _, v := range s {
			if v <= 0 {
				t.Errorf("series %q has non-positive BIPS", key)
			}
		}
	}
}

func TestFigure8JSON(t *testing.T) {
	raw, err := RunFigure8(opts).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != 3 {
		t.Errorf("want 3 loop series, got %d", len(back.Series))
	}
	for name, s := range back.Series {
		if s[0] < 0.99 || s[0] > 1.01 {
			t.Errorf("%s: first point %v, want 1.0", name, s[0])
		}
	}
}

func TestFigure11JSON(t *testing.T) {
	raw, err := RunFigure11(opts).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back SeriesJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.X) != 10 {
		t.Errorf("x has %d stages, want 10", len(back.X))
	}
	if _, ok := back.Series["naive-integer"]; !ok {
		t.Error("naive series missing")
	}
}

func TestHeadlineAndFigure1JSON(t *testing.T) {
	raw, err := HeadlineOf(RunFigure5(opts)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var h Headline
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if h.IntUseful == 0 {
		t.Error("headline lost its optimum in round-trip")
	}

	raw1, err := RunFigure1().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var f Figure1
	if err := json.Unmarshal(raw1, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 7 {
		t.Error("Figure 1 lost rows in round-trip")
	}
}
