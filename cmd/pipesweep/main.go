// Command pipesweep runs the pipeline-depth sweeps of Section 4:
// Figure 4a (in-order, no overhead), Figure 4b (in-order, 1.8 FO4
// overhead), Figure 5 (out-of-order) and Figure 6 (overhead sensitivity).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	sim := cliflags.Register(experiments.Full.Instructions)
	tel := cliflags.RegisterTel()
	which := flag.String("fig", "all", "figure to run: 4a, 4b, 5, 6 or all")
	flag.Parse()

	run := map[string]func(experiments.Options) cliflags.Result{
		"4a": func(o experiments.Options) cliflags.Result { return experiments.RunFigure4a(o) },
		"4b": func(o experiments.Options) cliflags.Result { return experiments.RunFigure4b(o) },
		"5":  func(o experiments.Options) cliflags.Result { return experiments.RunFigure5(o) },
		"6":  func(o experiments.Options) cliflags.Result { return experiments.RunFigure6(o) },
	}
	if _, ok := run[*which]; !ok && *which != "all" {
		fmt.Fprintln(os.Stderr, "unknown figure; use 4a, 4b, 5, 6 or all")
		os.Exit(2)
	}
	// Figure 6 sweeps the integer suite only, so a -bench filter that
	// matches no integer benchmark leaves it nothing to run.
	sim.MustOptions() // an unknown -bench exits 2 with the general message first
	fig6 := len(experiments.MatchGroup(*sim.Bench, trace.Integer)) > 0
	if *which == "6" && !fig6 {
		fmt.Fprintf(os.Stderr, "-bench %q matches no integer benchmark; Figure 6 sweeps the integer suite\n", *sim.Bench)
		os.Exit(2)
	}
	o, tr := cliflags.MustRun("pipesweep", sim, tel)
	tr.SetConfig("fig", *which)

	var results []cliflags.Result
	if *which == "all" {
		for _, k := range []string{"4a", "4b", "5", "6"} {
			if k == "6" && !fig6 {
				fmt.Fprintf(os.Stderr, "pipesweep: skipping Figure 6: -bench %q matches no integer benchmark\n", o.Bench)
				continue
			}
			results = append(results, run[k](o))
		}
	} else {
		results = append(results, run[*which](o))
	}
	cliflags.Emit(*sim.JSON, results...)
	cliflags.MustClose(tr)
}
