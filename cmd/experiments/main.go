// Command experiments runs the complete evaluation — every table and
// figure — and prints the paper-vs-measured report that EXPERIMENTS.md
// records.
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
	latchStep := flag.Float64("latchstep", 2.0, "latch sweep granularity, ps")
	skipCircuit := flag.Bool("nocircuit", false, "skip the (slow) circuit-level experiments")
	flag.Parse()
	o, run := cliflags.MustRun("experiments", sim, tel)
	rec := run.Recorder()

	results := []cliflags.Result{experiments.RunFigure1()}
	if !*skipCircuit {
		end := rec.Study("table1")
		results = append(results, experiments.RunTable1(*latchStep))
		end()
	}
	endT3 := rec.Study("table3")
	results = append(results, experiments.RunTable3())
	endT3()
	results = append(results,
		experiments.RunFigure4a(o),
		experiments.RunFigure4b(o),
		experiments.RunFigure5(o))
	// Figure 6 sweeps the integer suite only.
	if len(experiments.MatchGroup(o.Bench, trace.Integer)) > 0 {
		results = append(results, experiments.RunFigure6(o))
	} else {
		fmt.Fprintf(os.Stderr, "experiments: skipping Figure 6: -bench %q matches no integer benchmark\n", o.Bench)
	}
	results = append(results,
		experiments.RunFigure7(o),
		experiments.RunFigure8(o),
		experiments.RunFigure11(o),
		experiments.RunSegmentedSelect(o),
		experiments.RunCray1S(o),
		experiments.RunWireStudy(o),
		experiments.RunAblation(o),
		experiments.RunHeadline(o),
	)
	cliflags.Emit(*sim.JSON, results...)
	cliflags.MustClose(run)
}
