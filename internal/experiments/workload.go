package experiments

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// WorkloadRow is the measured character of one synthetic benchmark: the
// quantities the calibration in internal/trace/spec2000.go targets,
// measured through the same structural predictor and hierarchy the
// pipeline uses.
type WorkloadRow struct {
	Name  string
	Group trace.Group

	LoadFrac    float64
	StoreFrac   float64
	BranchFrac  float64
	MeanDepDist float64

	MispredictRate float64 // under the 21264 tournament predictor
	L1MissRate     float64 // under the 64KB/2MB hierarchy
	DRAMRate       float64 // fraction of memory accesses reaching DRAM
}

// WorkloadTable characterizes the whole suite.
type WorkloadTable struct {
	Rows []WorkloadRow
}

// RunWorkloadTable measures every selected benchmark profile. Each
// benchmark characterizes independently (predictor and hierarchy are
// per-call), so the rows run on the worker pool; row order always follows
// the suite's declaration order.
func RunWorkloadTable(o Options) WorkloadTable {
	if o.Instructions == 0 {
		// Characterization needs longer streams than the simulation
		// default to reach steady-state miss and mispredict rates.
		o.Instructions = 50000
	}
	o = o.fill()
	defer o.Obs.Study("workload-table")()
	profiles := MatchBenchmarks(o.Bench)
	pool := exec.Pool{Workers: o.Workers}
	if o.Obs != nil {
		pool.OnTask = o.Obs.Task
	}
	rows, _ := exec.Map(pool, profiles, func(_ int, p trace.Profile) WorkloadRow {
		return characterize(p, p.Generate(o.Instructions, o.Seed))
	})
	return WorkloadTable{Rows: rows}
}

func characterize(p trace.Profile, tr *trace.Trace) WorkloadRow {
	var counts [isa.NumClasses]int
	var depSum, depN float64
	var branches, mispredicts int
	h := mem.NewHierarchy(
		mem.NewCache(64<<10, 64, 2),
		mem.NewCache(2<<20, 64, 2),
	)
	h.Coverage = tr.PrefetchCoverage
	h.Prewarm(tr.HotBytes, tr.WarmBytes)

	var memAccesses, memToDRAM uint64
	cols := tr.Columns()
	ops := tr.Operands()
	nextAddr := 0
	for i, f := range cols.Flags {
		counts[trace.ClassOf(f)]++
		if s1, _ := ops.Next(); s1 >= 0 {
			depSum += float64(int32(i) - s1)
			depN++
		}
		switch {
		case f&trace.FlagBranch != 0:
			// The trace's build already walked the tournament predictor
			// over every branch in order; its verdicts are the flags.
			branches++
			if f&trace.FlagMispredict != 0 {
				mispredicts++
			}
		case f&(trace.FlagLoad|trace.FlagStore) != 0:
			memAccesses++
			if h.Access(uint64(cols.MemAddrs[nextAddr])) == mem.Memory {
				memToDRAM++
			}
			nextAddr++
		}
	}
	total := float64(tr.Len())
	row := WorkloadRow{
		Name:       p.Name,
		Group:      p.Group,
		LoadFrac:   float64(counts[isa.Load]) / total,
		StoreFrac:  float64(counts[isa.Store]) / total,
		BranchFrac: float64(counts[isa.Branch]) / total,
		L1MissRate: h.L1.MissRate(),
	}
	if branches > 0 {
		row.MispredictRate = float64(mispredicts) / float64(branches)
	}
	if depN > 0 {
		row.MeanDepDist = depSum / depN
	}
	if memAccesses > 0 {
		row.DRAMRate = float64(memToDRAM) / float64(memAccesses)
	}
	return row
}

// Render prints the characterization table.
func (w WorkloadTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-13s %5s %5s %5s %6s %7s %7s %7s\n",
		"benchmark", "group", "load%", "stor%", "br%", "dep", "mispr%", "L1miss%", "mem%")
	for _, r := range w.Rows {
		fmt.Fprintf(&b, "%-13s %-13s %4.1f%% %4.1f%% %4.1f%% %6.1f %6.1f%% %6.1f%% %6.2f%%\n",
			r.Name, r.Group,
			100*r.LoadFrac, 100*r.StoreFrac, 100*r.BranchFrac, r.MeanDepDist,
			100*r.MispredictRate, 100*r.L1MissRate, 100*r.DRAMRate)
	}
	return b.String()
}
