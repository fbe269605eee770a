package core

import "errors"

// PointGrid is the three options a sweep varies: its points are each
// Useful depth × each window Stages count × each benchmark, over options
// they share. The serving layer expands a request into one. Each axis
// is non-empty and has no repeats; Stages are normalized (no 0) and
// Benchmarks are suite names, so the points are distinct.
type PointGrid struct {
	Useful     []float64
	Stages     []int
	Benchmarks []string
}

// ErrTooManyPoints reports a grid with more points than the caller's
// limit before its first invalid one.
var ErrTooManyPoints = errors.New("grid has more points than the limit")

// Points returns the grid's points over the options in shared (whose
// Benchmark, Useful and WindowStages are ignored), normalized and
// validated, in (useful × stages × benchmark) order, with keys[i] =
// pts[i].Key(codeVersion). When a point is invalid it returns the error
// Validate reports for the first invalid one in that order — unless
// limit > 0 and more than limit points come before it, in which case it
// returns ErrTooManyPoints, as it does for a valid grid of more than
// limit points. Either way it fails before allocating a point.
//
// The shared options are normalized, validated and formatted once, and
// each depth and stage count is validated and formatted once. Its cost
// is linear in the axes' lengths plus one SHA-256 per point.
func (g PointGrid) Points(shared PointOptions, codeVersion string, limit int) (pts []PointOptions, keys []string, err error) {
	if len(g.Useful) == 0 || len(g.Stages) == 0 || len(g.Benchmarks) == 0 {
		return nil, nil, nil
	}
	base := shared
	base.Benchmark, base.Useful, base.WindowStages = g.Benchmarks[0], g.Useful[0], g.Stages[0]
	base = base.Normalize()
	if err := base.Validate(); err != nil {
		return nil, nil, err
	}
	// n counts the points before the first invalid one, all of them when
	// none is. Past the first point only a stage count or a depth can be
	// invalid. The first point with stage count j is j·len(Benchmarks),
	// before the first point with any depth but the first, so stages are
	// checked first.
	perDepth := len(g.Stages) * len(g.Benchmarks)
	n := len(g.Useful) * perDepth
	for j, st := range g.Stages[1:] {
		o := base
		o.WindowStages = st
		if err = o.windowErr(); err != nil {
			n = (j + 1) * len(g.Benchmarks)
			break
		}
	}
	if err == nil {
		for i, u := range g.Useful[1:] {
			if err = usefulErr(u); err != nil {
				n = (i + 1) * perDepth
				break
			}
		}
	}
	if limit > 0 && n > limit {
		return nil, nil, ErrTooManyPoints
	}
	if err != nil {
		return nil, nil, err
	}

	pts = make([]PointOptions, 0, n)
	keys = make([]string, 0, n)
	var buf [keyBufLen]byte
	kb := newKeyBuilder(buf[:0], codeVersion, base)
	for _, u := range g.Useful {
		kb.setUseful(u)
		for _, st := range g.Stages {
			kb.setStages(st)
			for _, b := range g.Benchmarks {
				pts = append(pts, base)
				p := &pts[len(pts)-1]
				p.Benchmark, p.Useful, p.WindowStages = b, u, st
				keys = append(keys, kb.key(b))
			}
		}
	}
	return pts, keys, nil
}
