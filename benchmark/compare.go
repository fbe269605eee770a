package main

// A/B mode. Two checkouts' benchmarks run alternately on the same host —
// A then B on even pairs, B then A on odd ones, one seed per pair — until
// each workload has comparePairs pairs in which neither run was unstable.
// Each end-to-end metric then gets medians, quartiles, the fraction of
// pairs B won and a verdict judged against BENCHMARK.json's bounds.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// comparePairs is how many stable pairs a verdict rests on.
	comparePairs = 10

	// maxPairs caps the pairs run per workload, so a host that stays
	// unstable ends the comparison with an unresolved verdict instead of
	// running forever.
	maxPairs = 3 * comparePairs

	// winFraction is the share of pairs B must win for an improvement.
	winFraction = 0.9
)

// boundFloor is the smallest change, in the metric's unit, that a
// verdict resolves: setup_s may worsen by its bound or by 50 ms,
// whichever is larger. A set-up of a few milliseconds moves by a large
// share of itself from run to run on a shared host, and a user does not
// see a change of a few milliseconds in it.
var boundFloor = map[string]float64{"setup_s": 0.050}

// e2eBound is one end_to_end entry of BENCHMARK.json.
type e2eBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]e2eBound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []e2eBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// sideRun is one benchmark run of one side.
type sideRun struct {
	res      result
	unstable bool
}

// benchOnce runs the checkout's own benchmark once, untraced.
func benchOnce(ctx context.Context, dir, workload string, seed uint64, seconds float64) (sideRun, error) {
	var sr sideRun
	cmd := osexec.CommandContext(ctx, "bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var ee *osexec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) { // 1 = ran, but an oracle failed
		return sr, fmt.Errorf("%s: %v", dir, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"unstable":true`) {
			sr.unstable = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &sr.res); err != nil {
		return sr, fmt.Errorf("%s: no result line: %v", dir, err)
	}
	return sr, nil
}

func runCompare(ctx context.Context, a, b, workload string, seconds float64) error {
	bounds, err := readBounds(filepath.Join(b, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	dirs := [2]string{a, b}
	for _, w := range workloads {
		if workload != "" && workload != "all" && workload != w.name {
			continue
		}
		var sides [2][]sideRun
		var dropped, incorrect int
		for i := 0; i < maxPairs && len(sides[0]) < comparePairs; i++ {
			seed := uint64(1000 + i)
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			var pair [2]sideRun
			for _, side := range order {
				if pair[side], err = benchOnce(ctx, dirs[side], w.name, seed, seconds); err != nil {
					return err
				}
				// Every run's result, for spreads over all runs.
				fmt.Fprintf(os.Stderr, "compare %s %s seed %d unstable=%t %s\n",
					w.name, "AB"[side:side+1], seed, pair[side].unstable, mustJSON(pair[side].res))
			}
			for _, sr := range pair {
				if !sr.res.Correct {
					incorrect++
				}
			}
			if pair[0].unstable || pair[1].unstable {
				dropped++
				continue
			}
			sides[0] = append(sides[0], pair[0])
			sides[1] = append(sides[1], pair[1])
		}
		stable := len(sides[0])
		fmt.Printf("%s (%d stable pairs; %d dropped as unstable; %d incorrect runs)\n", w.name, stable, dropped, incorrect)
		unresolved := incorrect > 0 || stable < comparePairs
		if unresolved {
			fmt.Printf("  every verdict is unresolved: ")
			if incorrect > 0 {
				fmt.Printf("an oracle failed\n")
			} else {
				fmt.Printf("%d pairs ran without %d stable ones\n", maxPairs, comparePairs)
			}
		}
		if stable == 0 {
			continue
		}
		fmt.Printf("  %-14s %28s %28s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		for _, bd := range bounds {
			va, vb := values(sides[0], bd.Name), values(sides[1], bd.Name)
			v, win := verdict(bd, va, vb, unresolved)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Printf("  %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %6.2f  %s\n",
				bd.Name, a2, a1, a3, b2, b1, b3, win, v)
		}
	}
	return nil
}

func values(rs []sideRun, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.res.Metrics[name].Value
	}
	return out
}

// verdict judges B against A for one metric and returns it with the
// fraction of pairs B won. The tolerance is the bound as a share of A's
// median, or the metric's boundFloor when that is larger. Regressed: B's
// median is worse than A's by more than the tolerance. Improved: B won
// at least winFraction of the pairs and its median differs from A's by
// more than A's spread between quartiles. When A's spread is wider than
// the tolerance the metric cannot be called unchanged: it is unresolved
// unless every B run beats every A run. unresolved (too few stable
// pairs, or an incorrect run) makes every verdict unresolved.
func verdict(bd e2eBound, a, b []float64, unresolved bool) (string, float64) {
	better := func(x, y float64) bool {
		if bd.Better == "lower" {
			return x < y
		}
		return x > y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	win := float64(wins) / float64(len(a))
	if unresolved {
		return "unresolved", win
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	tol := max(bd.Bound*math.Abs(ma), boundFloor[bd.Name])
	worse := mb - ma
	if bd.Better != "lower" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse > tol:
		return "regressed", win
	case better(mb, ma) && win >= winFraction && math.Abs(mb-ma) > q3-q1:
		return "improved", win
	case q3-q1 > tol && allBetter:
		return "improved", win
	case q3-q1 > tol:
		return "unresolved", win
	}
	return "unchanged", win
}
