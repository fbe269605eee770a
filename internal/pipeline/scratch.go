package pipeline

import (
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Scratch is the reusable simulation state of one Run: the
// per-instruction timestamp arenas, the out-of-order core's wakeup
// waiter lists, issue-queue storage, selection and
// pre-selection scratch, the trace-indexed fetchReady arena that holds
// the frontend queue, and the (resettable) branch predictor and cache
// hierarchy. A fresh Scratch is valid; reuse only amortizes allocations.
//
// Contract: a Scratch may serve any number of sequential RunWith calls —
// every run fully re-initializes the state it reads, so results are a
// pure function of (Params, Trace) regardless of what ran before — but
// it must never be shared by concurrent runs. The sweep engine lends
// one to each worker of a grid from a free list that outlives the grid,
// and the sweep daemon's workers each own one for the daemon's life;
// plain Run builds a fresh one. Traces stay immutable throughout: a Scratch only ever
// holds simulator-private state, never trace data.
type Scratch struct {
	// Per-instruction arenas, sized to the trace on each run. The data
	// (consumer-visible, post-bypass) and complete (executed) timestamps
	// are paired in one struct because dispatch resolves both for the same
	// producer back to back — one cache line per random producer lookup
	// instead of two.
	times    []instTimes
	queuePos []int32 // queue-tagged issue-queue position (see qposMask), -1 while absent

	// Waiter lists, the out-of-order core's wakeup index: waitHead[p] is
	// the first node of producer p's list in the waiters pool (-1 when
	// empty), and each node names one window entry with an operand still
	// awaiting p. Dispatch pushes a node per pending operand; p's issue
	// walks its list and recycles the nodes through a free list. At most
	// two operands per window entry are pending, so the pool stays
	// window-sized; its storage is kept across runs.
	waitHead []int32
	waiters  []waiter

	queueStore [2]issueQueue
	queueRefs  []*issueQueue // reused header for the active queue set

	selected []int32 // issueSelect output scratch
	quota    []int   // markPreSelections quota scratch

	// fetchReady[i] is the cycle instruction i clears the frontend
	// pipeline and may dispatch, written once at fetch. Fetch and dispatch
	// both walk the trace in order, so the frontend queue between them is
	// just the index range [dispatch cursor, fetch cursor) over this
	// arena — no reset needed: a slot is always written (this run) before
	// it is read.
	fetchReady []int64

	// hier is the run's hierarchy, copied from tmpl at the start of every
	// run; tmpl is prewarmed for tmplKey (see hierarchyFor).
	hier     *mem.Hierarchy
	tmpl     *mem.Hierarchy
	tmplKey  warmKey
	prewarms uint64
}

// NewScratch returns an empty Scratch; arenas grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// instTimes is one instruction's dynamic timestamps: data is the cycle a
// consumer may issue (post-bypass), complete the cycle the instruction
// has executed.
type instTimes struct {
	data, complete int64
}

// waiter is one node of a producer's waiter list: a consumer's trace
// index and the next node (-1 at the end).
type waiter struct{ consumer, next int32 }

// arenas sizes the per-instruction arrays for an n-instruction trace and
// resets them to their start-of-run values.
func (s *Scratch) arenas(n int) {
	if cap(s.times) < n {
		s.times = make([]instTimes, n)
		s.queuePos = make([]int32, n)
		s.waitHead = make([]int32, n)
		s.fetchReady = make([]int64, n)
		// queuePos and waitHead self-restore: a completed run issues
		// every instruction, which clears its queue slot and empties its
		// waiter list, so only fresh storage needs the -1 fill.
		// fetchReady needs none at all — a slot is written at fetch
		// before dispatch can read it.
		for i := range s.queuePos {
			s.queuePos[i] = -1
			s.waitHead[i] = -1
		}
	}
	s.times = s.times[:n]
	s.queuePos = s.queuePos[:n]
	s.waitHead = s.waitHead[:n]
	s.fetchReady = s.fetchReady[:n]
	for i := 0; i < n; i++ {
		s.times[i] = instTimes{data: pending, complete: pending}
	}
}

// queues configures the run's issue-queue set out of the scratch storage:
// the 21264's split integer/FP queues, or one shared window when
// UnifiedWindow is set.
func (s *Scratch) queues(m config.Machine, stages int) []*issueQueue {
	if s.queueRefs == nil {
		s.queueRefs = make([]*issueQueue, 0, len(s.queueStore))
	}
	qs := s.queueRefs[:0]
	if m.UnifiedWindow > 0 {
		s.queueStore[0].reset(m.UnifiedWindow, stages)
		qs = append(qs, &s.queueStore[0])
	} else {
		if m.IntWindow <= 0 || m.FPWindow <= 0 {
			panic("pipeline: machine needs issue-queue capacities")
		}
		s.queueStore[0].reset(m.IntWindow, stages)
		s.queueStore[1].reset(m.FPWindow, stages)
		qs = append(qs, &s.queueStore[0], &s.queueStore[1])
	}
	s.queueRefs = qs
	return qs
}

// selScratch returns the per-cycle selection scratch, emptied, with
// capacity for a full-width issue cycle.
func (s *Scratch) selScratch(width int) []int32 {
	if cap(s.selected) < width {
		s.selected = make([]int32, 0, width)
	}
	return s.selected[:0]
}

// quotaScratch returns the pre-selection quota array, one slot per
// window stage.
func (s *Scratch) quotaScratch(stages int) []int {
	if cap(s.quota) < stages {
		s.quota = make([]int, stages)
	}
	return s.quota[:stages]
}

// hierKey is the cache-geometry identity of a memory hierarchy: two
// hierarchies with equal keys are interchangeable after a Reset.
type hierKey struct {
	flat                       bool
	dl1Cap, dl1Block, dl1Assoc int
	l2Cap, l2Block, l2Assoc    int
}

func hierKeyFor(m config.Machine) hierKey {
	if m.Cray1SMemory {
		return hierKey{flat: true}
	}
	st := m.Structures
	return hierKey{
		dl1Cap: st.DL1.CapacityBytes, dl1Block: st.DL1.BlockBytes, dl1Assoc: st.DL1.Assoc,
		l2Cap: st.L2.CapacityBytes, l2Block: st.L2.BlockBytes, l2Assoc: st.L2.Assoc,
	}
}

// GeometryOrder returns params' indices grouped by memory-system
// geometry: groups in first-seen order, params order within a group.
// One Scratch running params in this order over one trace prewarms its
// hierarchy template once per geometry (see Prewarms). A parameter's
// group is found by rescanning params, which for a uniform grid (every
// depth sweep) stops at index 0.
func GeometryOrder(params []Params) []int {
	order := make([]int, 0, len(params))
	for i := range params {
		key := hierKeyFor(params[i].Machine)
		seen := false
		for j := 0; j < i && !seen; j++ {
			seen = hierKeyFor(params[j].Machine) == key
		}
		if seen {
			continue
		}
		for j := i; j < len(params); j++ {
			if hierKeyFor(params[j].Machine) == key {
				order = append(order, j)
			}
		}
	}
	return order
}

// warmKey is everything a prewarmed hierarchy's state is a function of:
// the cache geometry and the trace's working-set tiers. It holds values
// only, never the trace, so a Scratch does not keep a dropped trace
// alive.
type warmKey struct {
	geom                hierKey
	hotBytes, warmBytes uint64
}

// hierarchyFor puts the scratch's hierarchy in start-of-run state for
// machine m and trace tr: a copy of the scratch's prewarmed template,
// which is rebuilt and re-prewarmed only when the geometry or the
// trace's working-set tiers change, so successive runs of one geometry
// pay a pair of memcpys per level instead of a working-set walk each.
// The template's state is a pure function of its warmKey —
// Coverage is configuration, set here on every run — so the result is
// bit-identical to a fresh hierarchy prewarmed for this run.
func (s *Scratch) hierarchyFor(m config.Machine, tr *trace.Trace) *mem.Hierarchy {
	key := warmKey{geom: hierKeyFor(m), hotBytes: tr.HotBytes, warmBytes: tr.WarmBytes}
	if s.tmpl == nil || key != s.tmplKey {
		if s.tmpl == nil || key.geom != s.tmplKey.geom {
			s.tmpl, s.hier = newHierarchy(m), newHierarchy(m)
		} else {
			s.tmpl.Reset()
		}
		s.tmpl.Prewarm(tr.HotBytes, tr.WarmBytes)
		s.tmplKey = key
		s.prewarms++
	}
	s.hier.CopyStateFrom(s.tmpl)
	s.hier.Coverage = tr.PrefetchCoverage
	return s.hier
}

// Prewarms returns how many times this Scratch has prewarmed its
// hierarchy template. Runs in an order that keeps geometry and trace
// fixed (see GeometryOrder) prewarm once per change; the sweep engine
// and core.SimulateEach record the count as the "prewarms" counter.
func (s *Scratch) Prewarms() uint64 { return s.prewarms }
