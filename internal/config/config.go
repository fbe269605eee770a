// Package config assembles machine configurations — which structures a
// processor has and how big they are — and resolves them against a clock
// design point into whole-cycle latencies, reproducing the paper's Table 3
// methodology: structure access times (from the cacti model) and
// functional-unit work (from the Alpha 21264's latencies expressed in FO4)
// are divided by the useful time per stage and rounded up.
package config

import (
	"fmt"
	"math"

	"repro/internal/cacti"
	"repro/internal/fo4"
	"repro/internal/isa"
)

// Structures describes the sized on-chip structures of a machine.
type Structures struct {
	DL1 cacti.CacheConfig
	IL1 cacti.CacheConfig
	L2  cacti.CacheConfig

	RegFile cacti.RAMConfig

	// Rename is the map-table RAM; RenameCheckFO4 is the additional
	// dependency-check/bypass network the renamer needs per group of
	// concurrently renamed instructions.
	Rename         cacti.RAMConfig
	RenameCheckFO4 float64

	// Branch predictor tables (21264-style tournament predictor): the
	// local-history and local-counter arrays are accessed serially; the
	// global and choice arrays in parallel with them; ChoiceMuxFO4 is the
	// final selection mux.
	BPredLocalHist cacti.RAMConfig
	BPredLocalCnt  cacti.RAMConfig
	BPredGlobal    cacti.RAMConfig
	BPredChoice    cacti.RAMConfig
	ChoiceMuxFO4   float64

	Window cacti.CAMConfig // issue window wakeup CAM
}

// Machine is a full machine configuration.
type Machine struct {
	Name string

	FetchWidth  int
	IntIssue    int // integer instructions issued per cycle
	FPIssue     int // floating-point instructions issued per cycle
	CommitWidth int

	// The 21264 has separate issue queues: a 20-entry integer queue and a
	// 15-entry floating-point queue. The small FP queue limits how much
	// latency FP-heavy code can tolerate, so modeling the split matters
	// for the vector results. UnifiedWindow, when > 0, replaces both with
	// a single shared window of that size (used by the Section 5 32-entry
	// segmented-window experiments).
	IntWindow     int
	FPWindow      int
	UnifiedWindow int

	ROB     int // maximum instructions in flight
	IntRegs int
	FPRegs  int

	Structures Structures

	// MemLatencyFO4 is the main-memory access latency in FO4 (absolute
	// time, not logic depth): memory cycles are derived by dividing by the
	// full clock period, since DRAM does not speed up with the core clock.
	MemLatencyFO4 float64

	// Cray1SMemory selects the Section 4.2 what-if: no caches, and every
	// load/store pays the Cray-1S's flat 12-cycle memory. The Cray's cycle
	// was 16 ECL gate delays, and Appendix A equates one ECL gate to 1.36
	// FO4, so the memory's absolute latency is 12 × 16 × 1.36 ≈ 261 FO4 —
	// fixed in time, because a memory system does not speed up when the
	// core is pipelined more deeply. CrayMemFO4 holds that value.
	Cray1SMemory    bool
	CrayMemFO4      float64
	InOrder         bool // in-order issue (Section 4.1) vs dynamic (4.3)
	PerfectBranches bool // oracle branch prediction (for ablations)
	PerfectMemory   bool // every access hits in DL1 (for ablations)
	Model           cacti.Model
	OverrideDL1FO4  float64 // if > 0, replaces the cacti DL1 access time
	OverrideL2FO4   float64 // if > 0, replaces the cacti L2 access time
	OverrideWinFO4  float64 // if > 0, replaces the cacti window time
}

// Alpha21264 returns the paper's baseline machine: structure capacities
// matched to the Alpha 21264, a 2MB level-2 cache, and the register files
// raised to 512 entries each so deep pipelines are not starved of
// registers (Section 3.1).
func Alpha21264() Machine {
	return Machine{
		Name:        "alpha21264",
		FetchWidth:  4,
		IntIssue:    4,
		FPIssue:     2,
		CommitWidth: 8,
		IntWindow:   20,
		FPWindow:    15,
		ROB:         256,
		IntRegs:     512,
		FPRegs:      512,
		Structures: Structures{
			DL1:     cacti.CacheConfig{CapacityBytes: 64 << 10, BlockBytes: 64, Assoc: 2, Ports: 2},
			IL1:     cacti.CacheConfig{CapacityBytes: 64 << 10, BlockBytes: 64, Assoc: 2, Ports: 1},
			L2:      cacti.CacheConfig{CapacityBytes: 2 << 20, BlockBytes: 64, Assoc: 2, Ports: 1},
			RegFile: cacti.RAMConfig{Entries: 512, Bits: 64, Ports: 12},

			Rename:         cacti.RAMConfig{Entries: 80, Bits: 8, Ports: 12},
			RenameCheckFO4: 10.6,

			BPredLocalHist: cacti.RAMConfig{Entries: 1024, Bits: 10, Ports: 1},
			BPredLocalCnt:  cacti.RAMConfig{Entries: 1024, Bits: 3, Ports: 1},
			BPredGlobal:    cacti.RAMConfig{Entries: 4096, Bits: 2, Ports: 1},
			BPredChoice:    cacti.RAMConfig{Entries: 4096, Bits: 2, Ports: 1},
			ChoiceMuxFO4:   1.0,

			Window: cacti.CAMConfig{Entries: 20, TagBits: 9, BroadcastPorts: 4},
		},
		// ~100 ns of DRAM at 36 ps per FO4.
		MemLatencyFO4: 2778,
		CrayMemFO4:    12 * 16 * 1.36,
		Model:         cacti.Default100nm,
	}
}

// InOrder7Stage returns the Section 4.1 machine: the same resources as the
// Alpha 21264 but issuing in order through a seven-stage base pipeline.
func InOrder7Stage() Machine {
	m := Alpha21264()
	m.Name = "inorder7"
	m.InOrder = true
	return m
}

// Cray1SMemorySystem returns the Section 4.2 what-if: the in-order
// superscalar with a Cray-1S-like memory system — no caches, flat 12-cycle
// (in Cray terms) memory.
func Cray1SMemorySystem() Machine {
	m := InOrder7Stage()
	m.Name = "cray1s-mem"
	m.Cray1SMemory = true
	return m
}

// Timing is a machine resolved at one clock design point: every structure
// and operation latency in whole cycles.
type Timing struct {
	Clock fo4.Clock

	DL1     int // load-use data cache hit latency
	IL1     int // instruction cache access
	L2      int // L2 hit latency (total, from access start)
	Mem     int // main memory latency
	RegRead int
	Rename  int
	BPred   int
	Window  int // issue window wakeup (the issue-wakeup loop length)

	Exec [isa.NumClasses]int // execution latencies per class
}

// Resolve computes the cycle grid for machine m at clock c — the Table 3
// computation. Structure access times and functional-unit work (in FO4)
// are divided by the useful FO4 per stage and rounded up; main memory,
// whose absolute latency does not scale with core logic depth, is divided
// by the full clock period.
func (m Machine) Resolve(c fo4.Clock) Timing {
	t := Timing{Clock: c}
	md := m.Model

	dl1FO4 := md.CacheAccessFO4(m.Structures.DL1)
	if m.OverrideDL1FO4 > 0 {
		dl1FO4 = m.OverrideDL1FO4
	}
	l2FO4 := md.CacheAccessFO4(m.Structures.L2)
	if m.OverrideL2FO4 > 0 {
		l2FO4 = m.OverrideL2FO4
	}
	winFO4 := md.CAMAccessFO4(m.Structures.Window)
	if m.OverrideWinFO4 > 0 {
		winFO4 = m.OverrideWinFO4
	}

	t.DL1 = c.CyclesForWork(dl1FO4)
	t.IL1 = c.CyclesForWork(md.CacheAccessFO4(m.Structures.IL1))
	t.L2 = c.CyclesForWork(l2FO4)
	t.RegRead = c.CyclesForWork(md.RAMAccessFO4(m.Structures.RegFile))
	t.Rename = c.CyclesForWork(md.RAMAccessFO4(m.Structures.Rename) + m.Structures.RenameCheckFO4)
	t.BPred = c.CyclesForWork(m.BPredFO4())
	t.Window = c.CyclesForWork(winFO4)

	// Main memory: absolute latency over the full period.
	period := c.PeriodFO4()
	t.Mem = int(math.Ceil(m.MemLatencyFO4/period - 1e-9))
	if m.Cray1SMemory {
		t.Mem = int(math.Ceil(m.CrayMemFO4/period - 1e-9))
		t.DL1 = t.Mem // every access goes to memory
		t.L2 = t.Mem
	}
	if t.Mem < 1 {
		t.Mem = 1
	}

	alphaUseful := fo4.Alpha21264UsefulFO4()
	for cl := 0; cl < isa.NumClasses; cl++ {
		work := float64(isa.Class(cl).Alpha21264Cycles()) * alphaUseful
		t.Exec[cl] = c.CyclesForWork(work)
	}
	return t
}

// BPredFO4 returns the branch predictor's access time in FO4: the serial
// local-history → local-counter path in parallel with the global and
// choice arrays, plus the final chooser mux.
func (m Machine) BPredFO4() float64 {
	md := m.Model
	s := m.Structures
	local := md.RAMAccessFO4(s.BPredLocalHist) + md.RAMAccessFO4(s.BPredLocalCnt)
	global := math.Max(md.RAMAccessFO4(s.BPredGlobal), md.RAMAccessFO4(s.BPredChoice))
	return math.Max(local, global) + m.ChoiceMuxFO4()
}

// ChoiceMuxFO4 returns the chooser-mux delay (settable via Structures).
func (m Machine) ChoiceMuxFO4() float64 { return m.Structures.ChoiceMuxFO4 }

// Alpha21264Timing returns the last row of Table 3: the latencies the real
// 21264 has at its own 17.4 FO4 (useful) clock, taken from the hardware
// rather than the cacti model.
func Alpha21264Timing() Timing {
	var t Timing
	t.Clock = fo4.Clock{Useful: fo4.Alpha21264UsefulFO4(), Overhead: fo4.PaperOverhead}
	t.DL1 = 3
	t.IL1 = 1
	t.L2 = 16
	t.Mem = 80
	t.RegRead = 1
	t.Rename = 1
	t.BPred = 1
	t.Window = 1
	for cl := 0; cl < isa.NumClasses; cl++ {
		t.Exec[cl] = isa.Class(cl).Alpha21264Cycles()
	}
	return t
}

// Validate checks a machine configuration for the invariants the
// simulators assume, returning a descriptive error for the first
// violation. Library users building custom machines should call it before
// simulating; the built-in configurations always pass.
func (m Machine) Validate() error {
	switch {
	case m.FetchWidth < 1:
		return fmt.Errorf("config: %s: fetch width %d < 1", m.Name, m.FetchWidth)
	case m.IntIssue < 1 || m.FPIssue < 0:
		return fmt.Errorf("config: %s: issue widths %d/%d invalid", m.Name, m.IntIssue, m.FPIssue)
	case m.CommitWidth < 1:
		return fmt.Errorf("config: %s: commit width %d < 1", m.Name, m.CommitWidth)
	case m.UnifiedWindow == 0 && (m.IntWindow < 1 || m.FPWindow < 1):
		return fmt.Errorf("config: %s: issue queues %d/%d invalid", m.Name, m.IntWindow, m.FPWindow)
	case m.UnifiedWindow < 0:
		return fmt.Errorf("config: %s: unified window %d < 0", m.Name, m.UnifiedWindow)
	case m.ROB < max(m.IntWindow, m.FPWindow, m.UnifiedWindow):
		return fmt.Errorf("config: %s: in-flight limit %d below window capacity", m.Name, m.ROB)
	case !m.Cray1SMemory && m.MemLatencyFO4 <= 0:
		return fmt.Errorf("config: %s: memory latency %.1f FO4 invalid", m.Name, m.MemLatencyFO4)
	case m.Cray1SMemory && m.CrayMemFO4 <= 0:
		return fmt.Errorf("config: %s: Cray memory latency %.1f FO4 invalid", m.Name, m.CrayMemFO4)
	}
	return nil
}
