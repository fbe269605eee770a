package pipeline

import (
	"math/bits"
	"unsafe"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Scratch is the reusable simulation state of one Run: the
// out-of-order core's window rings (paired timestamps, issue-window
// slots, waiter-list heads and frontend arrival cycles), waiter pool,
// issue-queue bitmaps and ready-time wheel, the in-order core's result
// ring, selection and pre-selection scratch, and the (resettable)
// cache hierarchy. Every per-instruction array is a ring bounded by the
// machine's in-flight window or by trace.MaxDep, not by the trace's
// length, so a Scratch's memory stays the same however long the traces
// it runs (see RetainedBytes). A fresh Scratch is valid; reuse only
// amortizes allocations.
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
	// The out-of-order core's window rings: instruction i's state lives
	// in slot i&mask (see window). Only the instructions between the
	// commit cursor and the fetch cursor are ever read, at most ROB +
	// frontend-queue depth of them, so a ring at least that large gives
	// each its own slot. The data (consumer-visible, post-bypass) and
	// complete (executed) timestamps are paired in one struct because
	// dispatch resolves both for the same producer back to back — one
	// cache line per producer lookup instead of two. slots holds each
	// issue-window entry's operand state and wheel link.
	times []instTimes
	slots []winSlot

	// Waiter lists, the out-of-order core's wakeup index: waitHead[p] is
	// the first node of producer p's list in the waiters pool (-1 when
	// empty), and each node names one window entry with an operand still
	// awaiting p. Dispatch pushes a node per pending operand; p's issue
	// walks its list and recycles the nodes through a free list. At most
	// two operands per window entry are pending, so the pool stays
	// window-sized; its storage is kept across runs.
	waitHead []int32
	waiters  []waiter

	// fetchReady[i] is the cycle instruction i clears the frontend
	// pipeline and may dispatch, written when fetch claims the slot.
	// Fetch and dispatch both walk the trace in order, so the frontend
	// queue between them is just the index range [dispatch cursor, fetch
	// cursor) over this ring.
	fetchReady []int64

	// dataAt is the in-order core's result ring: slot i&(len-1) holds
	// instruction i's consumer-visible cycle (see inOrderRing).
	dataAt []int64

	// The issue queues' slot bitmaps, one bit per window-ring slot (see
	// issueQueue), and the ready-time wheel, sized per run by the
	// longest latency the run can schedule up to maxWheel buckets (see
	// readyWheel).
	queueStore [2]issueQueue
	queueRefs  []*issueQueue // reused header for the active queue set
	wheel      readyWheel

	selected []int32 // selection output scratch
	quota    []int   // markPreSelections quota scratch

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

// nextPow2 returns the smallest power of two that is at least n (n >= 1).
func nextPow2(n int) int {
	return 1 << bits.Len(uint(n-1))
}

// window sizes the out-of-order core's rings for an n-instruction trace
// with at most inFlight instructions between the commit and fetch
// cursors, and returns the index mask. The ring is the power of two at
// least inFlight+1, or at least n when that is smaller (then no slot
// is ever reused). No slot needs a reset here: fetch resets a slot's
// timestamps when it claims it, dispatch its window state, and waitHead
// restores itself — a completed run issues every instruction, which
// empties its waiter list — so only fresh storage needs the -1 fill.
func (s *Scratch) window(n, inFlight int) int {
	size := min(nextPow2(inFlight+1), nextPow2(n))
	if len(s.times) < size {
		s.times = make([]instTimes, size)
		s.slots = make([]winSlot, size)
		s.waitHead = make([]int32, size)
		s.fetchReady = make([]int64, size)
		for i := range s.waitHead {
			s.waitHead[i] = -1
		}
	}
	return size - 1
}

// maxWheel caps the ready-time wheel at 1024 buckets (4 KB), above the
// paper grid's longest latency (2 FO4's 732-cycle memory access, plus
// a segmented window's walk); entries filed further ahead wait in the
// wheel's overflow list (see readyWheel), so a run's memory does not
// follow its latencies.
const maxWheel = 1024

// readyWheel returns the run's ready-time wheel, emptied: a power of
// two, at least 64, of buckets beyond span, the furthest ahead of the
// current cycle the run can file an entry, or maxWheel buckets if span
// reaches that far. The storage only grows; a smaller run uses a prefix
// of it, which a completed run left empty, so only fresh storage needs
// the -1 fill.
func (s *Scratch) readyWheel(span int64) *readyWheel {
	size := 64
	for size < maxWheel && int64(size) <= span {
		size <<= 1
	}
	w := &s.wheel
	if cap(w.bucket) < size {
		w.bucket = make([]int32, size)
		for i := range w.bucket {
			w.bucket[i] = -1
		}
		w.busy = make([]uint64, size/64)
	}
	w.bucket, w.busy, w.mask = w.bucket[:size], w.busy[:size/64], size-1
	w.over, w.overMin = -1, pending
	return w
}

// inOrderRing returns the in-order core's result ring for an
// n-instruction trace: one slot per instruction up to the power of two
// at least n, capped at trace.MaxDep+1. Every producer sits at most
// trace.MaxDep back, so its slot is not overwritten before its last
// consumer reads it, and every slot is written before it is read.
func (s *Scratch) inOrderRing(n int) []int64 {
	size := min(nextPow2(n), trace.MaxDep+1)
	if len(s.dataAt) < size {
		s.dataAt = make([]int64, size)
	}
	return s.dataAt[:size]
}

// RetainedBytes returns the bytes the Scratch holds between runs: its
// rings, waiter pool, issue-queue bitmaps, ready-time wheel, selection
// scratch, and the two cache hierarchies (the prewarmed template and
// the run's copy), each array's capacity times its element size. It
// depends on the machines the Scratch has run, never on trace length
// beyond the rings' caps. The caller must own the Scratch: it reads the
// same state a run writes.
// A nil Scratch, which RunWith replaces with a fresh one per run,
// retains nothing.
func (s *Scratch) RetainedBytes() int64 {
	if s == nil {
		return 0
	}
	b := int64(cap(s.times))*int64(unsafe.Sizeof(instTimes{})) +
		int64(cap(s.slots))*int64(unsafe.Sizeof(winSlot{})) +
		int64(cap(s.waitHead)+cap(s.selected)+cap(s.wheel.bucket))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(s.fetchReady)+cap(s.dataAt))*int64(unsafe.Sizeof(int64(0))) +
		int64(cap(s.wheel.busy))*int64(unsafe.Sizeof(uint64(0))) +
		int64(cap(s.waiters))*int64(unsafe.Sizeof(waiter{})) +
		int64(cap(s.quota))*int64(unsafe.Sizeof(int(0))) +
		int64(cap(s.queueRefs))*int64(unsafe.Sizeof((*issueQueue)(nil)))
	for i := range s.queueStore {
		q := &s.queueStore[i]
		b += int64(cap(q.resident)+cap(q.ready)+cap(q.latched)) * int64(unsafe.Sizeof(uint64(0)))
	}
	if s.tmpl != nil && !s.tmplKey.geom.flat {
		// mem.Cache keeps one way — a tag and an LRU stamp, 16 B — per
		// cache line, for the template and the run's copy alike.
		g := s.tmplKey.geom
		b += 2 * 16 * int64(g.dl1Cap/g.dl1Block+g.l2Cap/g.l2Block)
	}
	return b
}

// queues configures the run's issue-queue set out of the scratch storage,
// over a window ring of ringSize slots: the 21264's split integer/FP
// queues, or one shared window when UnifiedWindow is set.
func (s *Scratch) queues(m config.Machine, stages, ringSize int) []*issueQueue {
	if s.queueRefs == nil {
		s.queueRefs = make([]*issueQueue, 0, len(s.queueStore))
	}
	qs := s.queueRefs[:0]
	if m.UnifiedWindow > 0 {
		s.queueStore[0].reset(m.UnifiedWindow, stages, ringSize)
		qs = append(qs, &s.queueStore[0])
	} else {
		if m.IntWindow <= 0 || m.FPWindow <= 0 {
			panic("pipeline: machine needs issue-queue capacities")
		}
		s.queueStore[0].reset(m.IntWindow, stages, ringSize)
		s.queueStore[1].reset(m.FPWindow, stages, ringSize)
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
